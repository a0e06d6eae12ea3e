package agent

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"nodeselect/internal/randx"
	"nodeselect/internal/remos"
)

// ChaosConfig sets per-operation fault probabilities for a ChaosProxy.
// Faults are evaluated per forwarded response, in the order hang, drop,
// corrupt, delay; all rates are probabilities in [0, 1].
type ChaosConfig struct {
	// HangRate swallows the response: the client blocks until its read
	// deadline fires. The connection is left open (a hung process, not a
	// dead one).
	HangRate float64
	// DropRate closes the client connection instead of responding,
	// mid-exchange — the classic crashed-peer signature.
	DropRate float64
	// CorruptRate mangles the response frame (body bytes flipped, length
	// intact) so the client's decoder sees malformed JSON.
	CorruptRate float64
	// DelayRate inserts Delay before forwarding the response (slow agent,
	// congested path). Delay defaults to 50ms when a rate is set.
	DelayRate float64
	Delay     time.Duration
}

// ChaosProxy is a fault-injecting TCP proxy in front of one agent. It
// speaks the agent framing, so faults land on whole responses: the tool
// for proving a collector survives hung, crashed, slow and byte-corrupting
// agents. A paused proxy refuses service entirely (agent crash); resuming
// restores it (agent repair).
type ChaosProxy struct {
	backend string
	ln      net.Listener

	mu     sync.Mutex
	cfg    ChaosConfig
	rng    *randx.Source
	paused bool
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewChaosProxy starts a proxy on a loopback port in front of the agent at
// backend. Faults are drawn from a stream seeded by seed, so a chaos run
// is reproducible.
func NewChaosProxy(backend string, seed int64, cfg ChaosConfig) (*ChaosProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("agent: chaos listen: %w", err)
	}
	p := &ChaosProxy{
		backend: backend,
		ln:      ln,
		cfg:     cfg.withDefaults(),
		rng:     randx.New(seed).Split("chaos/" + backend),
		conns:   map[net.Conn]struct{}{},
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.DelayRate > 0 && c.Delay <= 0 {
		c.Delay = 50 * time.Millisecond
	}
	return c
}

// Addr returns the proxy's listen address; dial agents through it.
func (p *ChaosProxy) Addr() string { return p.ln.Addr().String() }

// Set replaces the fault configuration at runtime (a fault schedule).
func (p *ChaosProxy) Set(cfg ChaosConfig) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cfg = cfg.withDefaults()
}

// Pause simulates an agent crash: every open connection is severed and
// new ones are cut immediately on accept.
func (p *ChaosProxy) Pause() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.paused = true
	for c := range p.conns {
		c.Close()
	}
}

// Resume repairs a paused proxy; new connections are served again.
func (p *ChaosProxy) Resume() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.paused = false
}

// Paused reports whether the proxy is simulating a crashed agent.
func (p *ChaosProxy) Paused() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.paused
}

// Close shuts the proxy down.
func (p *ChaosProxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.ln.Close()
	p.wg.Wait()
}

func (p *ChaosProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed || p.paused {
			p.mu.Unlock()
			conn.Close()
			continue
		}
		p.conns[conn] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go p.serve(conn)
	}
}

// roll draws one fault decision under the proxy lock (the rng is not
// concurrency-safe) and returns the current config alongside.
func (p *ChaosProxy) roll() (u float64, cfg ChaosConfig) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rng.Float64(), p.cfg
}

func (p *ChaosProxy) serve(client net.Conn) {
	defer p.wg.Done()
	defer func() {
		client.Close()
		p.mu.Lock()
		delete(p.conns, client)
		p.mu.Unlock()
	}()
	upstream, err := net.DialTimeout("tcp", p.backend, 2*time.Second)
	if err != nil {
		return
	}
	defer upstream.Close()
	for {
		// Forward one request frame verbatim.
		var req json.RawMessage
		if err := ReadFrame(client, &req); err != nil {
			return
		}
		if err := WriteFrame(upstream, req); err != nil {
			return
		}
		var resp json.RawMessage
		if err := ReadFrame(upstream, &resp); err != nil {
			return
		}
		// Fault decision for this response.
		u, cfg := p.roll()
		switch {
		case u < cfg.HangRate:
			// Swallow the response and hold the connection open until the
			// client gives up.
			var discard [1]byte
			client.Read(discard[:])
			return
		case u < cfg.HangRate+cfg.DropRate:
			return // severed mid-exchange
		case u < cfg.HangRate+cfg.DropRate+cfg.CorruptRate:
			if err := writeCorruptFrame(client, resp); err != nil {
				return
			}
			continue
		case u < cfg.HangRate+cfg.DropRate+cfg.CorruptRate+cfg.DelayRate:
			time.Sleep(cfg.Delay)
		}
		if err := WriteFrame(client, resp); err != nil {
			return
		}
	}
}

// writeCorruptFrame writes a frame whose length header is intact but whose
// body bytes are mangled — the shape of a buggy or malicious agent that
// the client-side decoder must reject without panicking.
func writeCorruptFrame(w io.Writer, body []byte) error {
	bad := CorruptBody(body)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(bad)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(bad)
	return err
}

// CorruptBody deterministically mangles a frame body so it no longer
// parses as the JSON it was: every 3rd byte is bit-flipped. Exported so
// the fuzz harness can replay exactly the corruption the proxy injects.
func CorruptBody(body []byte) []byte {
	bad := make([]byte, len(body))
	copy(bad, body)
	if len(bad) == 0 {
		return []byte{0xFF}
	}
	for i := 0; i < len(bad); i += 3 {
		bad[i] ^= 0xA5
	}
	return bad
}

// ChaosFleet is a Fleet fronted by one ChaosProxy per agent: the full
// measurement fabric with a fault injector on every path.
type ChaosFleet struct {
	Fleet   *Fleet
	Proxies []*ChaosProxy
	addrs   []string
}

// StartChaosFleet launches one agent per node of src plus a chaos proxy
// in front of each. Dial the fleet through Addrs to route every RPC
// through the injectors.
func StartChaosFleet(src remos.Source, seed int64, cfg ChaosConfig) (*ChaosFleet, error) {
	fleet, err := StartFleet(src)
	if err != nil {
		return nil, err
	}
	cf := &ChaosFleet{Fleet: fleet}
	for i, backend := range fleet.Addrs() {
		p, err := NewChaosProxy(backend, seed+int64(i), cfg)
		if err != nil {
			cf.Close()
			return nil, err
		}
		cf.Proxies = append(cf.Proxies, p)
		cf.addrs = append(cf.addrs, p.Addr())
	}
	return cf, nil
}

// Addrs returns the proxies' addresses, indexed by node ID.
func (cf *ChaosFleet) Addrs() []string { return cf.addrs }

// Close stops the proxies and the agents behind them.
func (cf *ChaosFleet) Close() {
	for _, p := range cf.Proxies {
		p.Close()
	}
	cf.Fleet.Close()
}

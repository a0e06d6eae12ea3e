// Package remos implements a Remos-style query interface to network
// information (§2.2 of the paper): applications query the current load on
// compute nodes, the capacity and utilization of links, available bandwidth
// between node pairs (flow queries), and the logical network topology.
//
// Measurements are gathered by a Collector that periodically polls a
// Source — either the simulator directly (SimSource) or per-node agents
// over TCP (internal/remos/agent), mirroring the SNMP-based local-area
// implementation of the real Remos system. Queries can be answered from
// the latest sample, from a fixed window of history, or from a simple
// forecast, matching the three collection modes the paper describes.
//
// The collector polls on a period and answers from what it collected: a
// Snapshot is assembled per query, but Health and Freshness are per-poll
// values, computed by the poll that changes them and returned as stored.
// The Freshness age arrays are shared by every caller of one poll epoch —
// read them, never write; the next poll publishes new arrays.
package remos

import (
	"fmt"
	"sync"

	"nodeselect/internal/netsim"
	"nodeselect/internal/topology"
)

// Source provides raw measurements: per-node load averages and cumulative
// per-link traffic counters, like SNMP interface octet counters. A Source
// is polled by a Collector; it reports instantaneous state and never
// aggregates over time itself.
type Source interface {
	// Topology returns the static topology being measured.
	Topology() *topology.Graph
	// Now returns the source's current measurement time in seconds.
	Now() float64
	// NodeLoad returns a node's current load average. With
	// backgroundOnly true, the measured application's own tasks are
	// excluded (§3.3 dynamic migration).
	NodeLoad(node int, backgroundOnly bool) float64
	// LinkBits returns the cumulative bits carried by a link since the
	// start of measurement, both directions combined. With
	// backgroundOnly true, application traffic is excluded.
	LinkBits(link int, backgroundOnly bool) float64
	// LinkUp reports whether the link is operational, like the SNMP
	// ifOperStatus flag: a down link offers no bandwidth regardless of
	// what its (frozen) counters suggest.
	LinkUp(link int) bool
}

// SimSource adapts a netsim.Network as a measurement source.
type SimSource struct {
	net *netsim.Network
}

// NewSimSource returns a Source reading directly from the simulator.
func NewSimSource(n *netsim.Network) *SimSource { return &SimSource{net: n} }

// Topology implements Source.
func (s *SimSource) Topology() *topology.Graph { return s.net.Graph() }

// Now implements Source.
func (s *SimSource) Now() float64 { return s.net.Now() }

// NodeLoad implements Source.
func (s *SimSource) NodeLoad(node int, backgroundOnly bool) float64 {
	return s.net.Host(node).LoadAvg(backgroundOnly)
}

// LinkBits implements Source.
func (s *SimSource) LinkBits(link int, backgroundOnly bool) float64 {
	bits := s.net.LinkBits(link, netsim.Background)
	if !backgroundOnly {
		bits += s.net.LinkBits(link, netsim.Application)
	}
	return bits
}

// LinkUp implements Source.
func (s *SimSource) LinkUp(link int) bool { return !s.net.LinkFailed(link) }

// StaticSource is a Source with explicitly controlled state: fixed load
// averages and fixed link usage rates whose counters grow linearly with
// the source's clock. It backs the standalone Remos agent daemon
// (cmd/remosd) and protocol tests, and is safe for concurrent use.
type StaticSource struct {
	mu     sync.Mutex
	graph  *topology.Graph
	now    float64
	loads  []float64
	usedBW []float64 // bits/second currently consumed per link
	down   []bool    // operational status per link
}

// NewStaticSource builds a static source over g with all nodes idle and
// all links unused.
func NewStaticSource(g *topology.Graph) *StaticSource {
	return &StaticSource{
		graph:  g,
		loads:  make([]float64, g.NumNodes()),
		usedBW: make([]float64, g.NumLinks()),
		down:   make([]bool, g.NumLinks()),
	}
}

// FromSnapshot builds a static source whose loads and link usage reproduce
// the given snapshot (used = capacity − available).
func FromSnapshot(s *topology.Snapshot) (*StaticSource, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("remos: %w", err)
	}
	src := NewStaticSource(s.Graph)
	copy(src.loads, s.LoadAvg)
	for l := range src.usedBW {
		src.usedBW[l] = s.Graph.Link(l).Capacity - s.AvailBW[l]
	}
	src.now = s.Time
	return src, nil
}

// SetLoad sets a node's load average.
func (s *StaticSource) SetLoad(node int, load float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads[node] = load
}

// SetUsedBW sets a link's consumed bandwidth in bits/second.
func (s *StaticSource) SetUsedBW(link int, bps float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.usedBW[link] = bps
}

// Advance moves the source's clock forward, growing the counters.
func (s *StaticSource) Advance(dt float64) {
	if dt < 0 {
		panic("remos: negative time advance")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now += dt
}

// Topology implements Source.
func (s *StaticSource) Topology() *topology.Graph { return s.graph }

// Now implements Source.
func (s *StaticSource) Now() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// NodeLoad implements Source. StaticSource carries no application load, so
// backgroundOnly makes no difference.
func (s *StaticSource) NodeLoad(node int, backgroundOnly bool) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loads[node]
}

// LinkBits implements Source: counters grow linearly at the configured
// usage rate.
func (s *StaticSource) LinkBits(link int, backgroundOnly bool) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.usedBW[link] * s.now
}

// SetLinkUp sets a link's operational status.
func (s *StaticSource) SetLinkUp(link int, up bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down[link] = !up
}

// LinkUp implements Source.
func (s *StaticSource) LinkUp(link int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.down[link]
}

// Command selectd serves node selection as an HTTP service: it polls a
// fleet of Remos agents (or a synthetic source) in the background and
// answers placement requests — the integration surface a launcher or
// batch scheduler would use.
//
// Usage:
//
//	# against a remosd agent fleet, discovering the topology:
//	selectd -listen 127.0.0.1:8800 -agents 127.0.0.1:7700 -nodes 21
//
//	# against a synthetic snapshot (no agents needed):
//	topogen -topo cmu -snapshot | selectd -listen 127.0.0.1:8800 -stdin
//
//	curl localhost:8800/healthz
//	curl localhost:8800/snapshot?mode=window
//	curl -d '{"m":4,"algo":"balanced"}' localhost:8800/select
//	curl localhost:8800/metrics          # Prometheus text exposition
//	curl localhost:8800/debug/vars       # JSON registry dump
//	curl localhost:8800/decisions?n=5    # recent placement audit entries
//
// Multi-tenant admission control: a select with a "demand" reserves the
// placement's CPU and bandwidth in a lease (renew/release via /leases).
// With -lease-dir the reservation ledger is persisted to a write-ahead
// log and survives restarts:
//
//	selectd ... -lease-dir /var/lib/selectd/leases
//	curl -d '{"m":3,"demand":{"cpu":0.5,"bw":20e6},"lease_ttl":60}' localhost:8800/select
//	curl localhost:8800/leases
//	curl -X POST localhost:8800/leases/lease-0/renew -d '{"ttl":120}'
//	curl -X DELETE localhost:8800/leases/lease-0
//
// Long-running applications: with -rebalance the daemon re-scores every
// active lease each measurement epoch and publishes migration proposals
// when a sustained load shift makes a placement at least 25% better
// available:
//
//	selectd ... -rebalance
//	curl localhost:8800/migrations
//	curl -X POST localhost:8800/migrations/lease-0/apply
//
// With -rebalance-auto confirmed proposals are applied without operator
// intervention (atomic reserve-new-then-release-old handover).
//
// SIGINT/SIGTERM shut the daemon down gracefully: in-flight requests
// drain (5s budget), the rebalance controller stops (waiting out any
// in-flight handover), and the ledger is flushed before exit. A server
// failure, or a start-up failure after some components have started,
// stops what has started in the same order.
//
// High availability: with -replica-id the daemon joins a replicated
// cluster. The lease ledger's transitions are streamed through a
// leader-based replicated log (quorum fsync before any acknowledgement),
// so acknowledged reservations survive the loss of a minority of
// replicas; followers serve reads annotated with X-Replica-Role/Term/
// Commit-Lag and bounce writes to the leader with a 307:
//
//	selectd ... -replica-id a -replica-dir /var/lib/selectd/a \
//	  -replica-listen 127.0.0.1:8811 \
//	  -replica-peers b=http://h2:8811,c=http://h3:8811 \
//	  -peer-urls a=http://h1:8800,b=http://h2:8800,c=http://h3:8800
//
// With -debug, net/http/pprof profiling is served under /debug/pprof/.
//
// The measurement transport is fault tolerant: -connect-timeout and
// -io-timeout bound every agent operation, -allow-partial starts the
// service on the reachable subset of the fleet (unreachable agents are
// reported, served from last-known-good data, and redialed in the
// background), -max-stale caps how old served measurements may get, and
// -exclude-stale keeps nodes beyond that cap out of placements. /healthz
// reports "ok", "degraded" (some measurements stale; still serving, HTTP
// 200) or "unhealthy" (nothing recent enough to serve, HTTP 503).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nodeselect/internal/lease"
	"nodeselect/internal/rebalance"
	"nodeselect/internal/remos"
	"nodeselect/internal/remos/agent"
	"nodeselect/internal/replica"
	"nodeselect/internal/reqtrace"
	"nodeselect/internal/selectsvc"
	"nodeselect/internal/topology"
)

// Settings no deployment has needed to change. The library fields behind
// them stay, because tests drive them to other values.
const (
	sweepInterval    = 5 * time.Second // background lease-expiry sweep
	rebalanceMinGain = 0.25            // minimum relative gain of a proposed migration
	drainBudget      = 5 * time.Second // in-flight requests' grace on shutdown
)

// options carries the parsed command line.
type options struct {
	listen, agents string
	nodeCnt        int
	stdin, debug   bool
	period         time.Duration

	connectTimeout, ioTimeout time.Duration
	allowPartial              bool
	maxStale                  time.Duration
	excludeStale              bool

	leaseDir              string
	leaseTTL, leaseMaxTTL time.Duration

	batchWindow time.Duration

	planCache int
	hierarchy bool

	rebalance     bool
	rebalanceAuto bool

	traceOff bool

	replicaID       string
	replicaPeers    string
	replicaListen   string
	replicaDir      string
	peerClientURLs  string
	electionTimeout time.Duration
	heartbeat       time.Duration
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdin, os.Stdout)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "selectd:", err)
		os.Exit(1)
	}
}

// parseFlags parses the command line; usage and parse errors go to out.
func parseFlags(args []string, out io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("selectd", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&o.listen, "listen", "127.0.0.1:8800", "HTTP listen address")
	fs.StringVar(&o.agents, "agents", "", "base agent address (node i at port+i)")
	fs.IntVar(&o.nodeCnt, "nodes", 0, "agent count for topology discovery")
	fs.BoolVar(&o.stdin, "stdin", false, "read a topology document from stdin and serve a synthetic source")
	fs.DurationVar(&o.period, "period", 2*time.Second, "measurement polling period")
	fs.BoolVar(&o.debug, "debug", false, "serve net/http/pprof under /debug/pprof/")
	fs.DurationVar(&o.connectTimeout, "connect-timeout", 2*time.Second, "agent TCP connect deadline")
	fs.DurationVar(&o.ioTimeout, "io-timeout", 2*time.Second, "agent request/response deadline")
	fs.BoolVar(&o.allowPartial, "allow-partial", false, "start with the reachable subset of the agent fleet (discovery still needs all agents)")
	fs.DurationVar(&o.maxStale, "max-stale", 0, "serve last-known-good measurements at most this old; 0 = forever")
	fs.BoolVar(&o.excludeStale, "exclude-stale", false, "drop nodes with stale measurements from /select candidates (needs -max-stale)")
	fs.StringVar(&o.leaseDir, "lease-dir", "", "directory for the reservation ledger's write-ahead log; leases survive restarts (empty = in-memory only)")
	fs.DurationVar(&o.leaseTTL, "lease-ttl", 30*time.Second, "default lease time to live when a request names none")
	fs.DurationVar(&o.leaseMaxTTL, "lease-max-ttl", 10*time.Minute, "ceiling on any requested lease TTL")
	fs.DurationVar(&o.batchWindow, "batch-window", 0, "epoch-batch admission window: queue concurrent leased selects up to this long (or 64 of them) and commit them as one WAL record (0 = serial admission)")
	fs.IntVar(&o.planCache, "plan-cache", 0, "max plans memoized per snapshot/ledger epoch (0 = default 256, negative = disable caching)")
	fs.BoolVar(&o.hierarchy, "hierarchy", false, "answer plain sweep selects via cluster-first hierarchical selection (exact-equivalent quotient sweep with flat fallback; keeps select latency sub-millisecond on 10k+-node topologies)")
	fs.BoolVar(&o.rebalance, "rebalance", false, "run the placement rebalance controller in advisory mode (proposals via /migrations, applied on request)")
	fs.BoolVar(&o.rebalanceAuto, "rebalance-auto", false, "apply confirmed migration proposals automatically (implies -rebalance)")
	fs.BoolVar(&o.traceOff, "trace-off", false, "disable request tracing (X-Request-ID correlation stays on)")
	fs.StringVar(&o.replicaID, "replica-id", "", "this replica's name in a replicated cluster (empty = standalone)")
	fs.StringVar(&o.replicaPeers, "replica-peers", "", "comma-separated id=url pairs of the OTHER replicas' RPC endpoints (e.g. b=http://h2:8811,c=http://h3:8811)")
	fs.StringVar(&o.replicaListen, "replica-listen", "", "listen address for the replica RPC server (required with -replica-peers)")
	fs.StringVar(&o.replicaDir, "replica-dir", "", "directory for the replicated log and term state (required with -replica-id)")
	fs.StringVar(&o.peerClientURLs, "peer-urls", "", "comma-separated id=url pairs of every replica's CLIENT endpoint, for 307 write redirects")
	fs.DurationVar(&o.electionTimeout, "election-timeout", 500*time.Millisecond, "replica heartbeat-loss timeout before a new election")
	fs.DurationVar(&o.heartbeat, "replica-heartbeat", 100*time.Millisecond, "leader append/heartbeat interval")
	return o, fs.Parse(args)
}

// mountPprof adds the net/http/pprof handlers to a mux. The handlers are
// mounted explicitly rather than via the package's DefaultServeMux side
// effect so profiling stays opt-in behind -debug.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// stopStack is the daemon's teardown. Each component pushes its stop as
// it starts, and unwind runs the stops newest first, so a component stops
// before anything started ahead of it: servers before the service they
// call, the replica node before the ledger it applies to, the ledger
// before the source.
type stopStack struct {
	names []string
	stops []func() error
}

func (s *stopStack) push(name string, stop func() error) {
	s.names = append(s.names, name)
	s.stops = append(s.stops, stop)
}

// unwind runs every stop, newest first, reports the order on out and
// returns the stops' errors joined.
func (s *stopStack) unwind(out io.Writer) error {
	if len(s.stops) == 0 {
		return nil
	}
	var errs []error
	order := make([]string, 0, len(s.names))
	for i := len(s.stops) - 1; i >= 0; i-- {
		if err := s.stops[i](); err != nil {
			errs = append(errs, fmt.Errorf("stop %s: %w", s.names[i], err))
		}
		order = append(order, s.names[i])
	}
	fmt.Fprintf(out, "selectd: stopped %s\n", strings.Join(order, ", "))
	return errors.Join(errs...)
}

// noErr adapts a stop that cannot fail.
func noErr(stop func()) func() error {
	return func() error { stop(); return nil }
}

// run starts the daemon from a command line and serves until ctx is done
// or a server fails. Whatever has started is stopped before it returns,
// on every path.
func run(ctx context.Context, args []string, stdin io.Reader, stdout io.Writer) (err error) {
	o, err := parseFlags(args, stdout)
	if err != nil {
		return err
	}
	if o.excludeStale && o.maxStale <= 0 {
		return fmt.Errorf("-exclude-stale needs -max-stale")
	}
	replicated := o.replicaID != ""
	if replicated && o.leaseDir != "" {
		return fmt.Errorf("-lease-dir and -replica-id are mutually exclusive: a replicated ledger's durability is the replicated log under -replica-dir")
	}
	if replicated && o.replicaDir == "" {
		return fmt.Errorf("-replica-id needs -replica-dir")
	}
	peerRPC, err := parsePeerList(o.replicaPeers)
	if err != nil {
		return fmt.Errorf("-replica-peers: %w", err)
	}
	peerClients, err := parsePeerList(o.peerClientURLs)
	if err != nil {
		return fmt.Errorf("-peer-urls: %w", err)
	}
	if replicated && len(peerRPC) > 0 && o.replicaListen == "" {
		return fmt.Errorf("-replica-peers needs -replica-listen")
	}

	var stops stopStack
	defer func() { err = errors.Join(err, stops.unwind(stdout)) }()

	var src remos.Source
	switch {
	case o.stdin:
		g, snap, err := topology.ReadDocument(stdin)
		if err != nil {
			return err
		}
		if snap == nil {
			snap = topology.NewSnapshot(g)
		}
		st, err := remos.FromSnapshot(snap)
		if err != nil {
			return err
		}
		// Advance the synthetic clock in real time.
		t := time.NewTicker(o.period)
		done, exited := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(exited)
			for {
				select {
				case <-t.C:
					st.Advance(o.period.Seconds())
				case <-done:
					return
				}
			}
		}()
		stops.push("clock", noErr(func() {
			t.Stop()
			close(done)
			<-exited
		}))
		src = st
	case o.agents != "":
		if o.nodeCnt <= 0 {
			return fmt.Errorf("-agents needs -nodes (the agent count)")
		}
		host, portStr, err := net.SplitHostPort(o.agents)
		if err != nil {
			return err
		}
		base, err := strconv.Atoi(portStr)
		if err != nil {
			return err
		}
		addrs := make([]string, o.nodeCnt)
		for i := range addrs {
			addrs[i] = net.JoinHostPort(host, strconv.Itoa(base+i))
		}
		dc := agent.DialConfig{
			ConnectTimeout: o.connectTimeout,
			IOTimeout:      o.ioTimeout,
			AllowPartial:   o.allowPartial,
			Seed:           time.Now().UnixNano(),
		}
		ns, err := dc.DiscoverSource(addrs)
		if err != nil {
			return err
		}
		stops.push("agents", noErr(ns.Close))
		if un := ns.Unreachable(); len(un) > 0 {
			g := ns.Topology()
			names := make([]string, len(un))
			for i, id := range un {
				names[i] = g.Node(id).Name
			}
			fmt.Fprintf(stdout, "selectd: starting degraded, %d/%d agents unreachable: %v\n",
				len(un), o.nodeCnt, names)
		}
		src = ns
	default:
		return fmt.Errorf("either -stdin or -agents is required")
	}

	// The reservation ledger. With -lease-dir it is backed by a write-ahead
	// log, so active leases (reserved capacity) survive a daemon restart.
	// In a replicated cluster the ledger is built bare here and wired to
	// the replica node below: durability and recovery come from the
	// replicated log instead of a local WAL.
	leaseOpts := lease.Options{DefaultTTL: o.leaseTTL, MaxTTL: o.leaseMaxTTL}
	if o.leaseDir != "" {
		w, err := lease.OpenWAL(o.leaseDir)
		if err != nil {
			return err
		}
		leaseOpts.WAL = w
	}
	ledger, err := lease.New(src.Topology(), leaseOpts)
	if err != nil {
		return err
	}
	stops.push("ledger", ledger.Close)
	if st := ledger.Stats(); st.Recovered > 0 || st.RecoverySkipped > 0 {
		fmt.Fprintf(stdout, "selectd: recovered %d leases from %s (%d skipped)\n",
			st.Recovered, o.leaseDir, st.RecoverySkipped)
	}

	// Cluster bootstrap: start the consensus node around the ledger's
	// Apply, then hand the ledger its Replicate. The ledger's ID counter is
	// advanced past every lease sequence anywhere in the recovered log —
	// committed or rolled back — so no ID is ever reused across failover.
	var node *replica.Node
	if replicated {
		peerIDs := make([]string, 0, len(peerRPC))
		for id := range peerRPC {
			peerIDs = append(peerIDs, id)
		}
		sort.Strings(peerIDs)
		node, err = replica.Start(replica.Config{
			ID:              o.replicaID,
			Peers:           peerIDs,
			Dir:             o.replicaDir,
			Transport:       &replica.HTTPTransport{Self: o.replicaID, PeerURLs: peerRPC},
			Apply:           ledger.Apply,
			ElectionTimeout: o.electionTimeout,
			Heartbeat:       o.heartbeat,
		})
		if err != nil {
			return err
		}
		// Stopping flushes and closes the replicated log; the stack runs it
		// before the ledger closes, so no Apply lands on a closed ledger.
		stops.push("replica node", noErr(node.Stop))
		ledger.SetReplicator(node)
		ledger.AdvanceSeq(node.MaxLeaseSeq())
		fmt.Fprintf(stdout, "selectd: replica %s with peers %v, log at %s\n",
			o.replicaID, peerIDs, o.replicaDir)
	}

	cfg := selectsvc.Config{
		Collector: remos.CollectorConfig{
			Period:      o.period.Seconds(),
			MaxStaleAge: o.maxStale.Seconds(),
		},
		DefaultMode:   remos.Window,
		Seed:          time.Now().UnixNano(),
		ExcludeStale:  o.excludeStale,
		Ledger:        ledger,
		PlanCacheSize: o.planCache,
		Hierarchy:     o.hierarchy,
		BatchWindow:   o.batchWindow,
		Trace:         reqtrace.Config{Disabled: o.traceOff},
	}
	if node != nil {
		cfg.Replica = node
		cfg.PeerClientURLs = peerClients
	}
	if o.rebalance || o.rebalanceAuto {
		cfg.Rebalance = &rebalance.Policy{MinGain: rebalanceMinGain, Auto: o.rebalanceAuto}
	}
	svc := selectsvc.New(src, cfg)
	// Batched admissions drain before the ledger closes: StopBatching
	// blocks until every queued acquire has committed or failed, and
	// StopRebalance until any in-flight handover has.
	stops.push("batching", noErr(svc.StopBatching))
	stops.push("rebalance", noErr(svc.StopRebalance))
	start := time.Now()
	svc.Registry().NewGaugeFunc("process_uptime_seconds",
		"Seconds since the daemon started.",
		func() float64 { return time.Since(start).Seconds() })

	if err := svc.Poll(); err != nil {
		return err
	}
	// Background measurement loop. Its stop blocks until any in-flight
	// poll (which sweeps the lease ledger) has returned.
	stops.push("polling", noErr(svc.StartPolling(o.period, func(err error) {
		fmt.Fprintln(os.Stderr, "selectd: poll:", err)
	})))
	// Expire abandoned leases even between polls and requests.
	stops.push("sweeper", noErr(ledger.StartSweeper(sweepInterval)))

	errc := make(chan error, 2) // at most one send from each server
	// The replica RPC plane gets its own listener so peer traffic (votes,
	// log streams) is never queued behind client requests.
	if node != nil && o.replicaListen != "" {
		rs := &http.Server{Addr: o.replicaListen, Handler: replica.Handler(node)}
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			if err := rs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				errc <- fmt.Errorf("replica server: %w", err)
			}
		}()
		stops.push("replica server", func() error {
			err := rs.Close()
			<-exited
			return err
		})
	}

	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	if o.debug {
		mountPprof(mux)
	}
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	server := &http.Server{Handler: mux}
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		if err := server.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	// Stop accepting and drain in-flight requests; past the budget, cut
	// them off.
	stops.push("http server", func() error {
		shutCtx, cancel := context.WithTimeout(context.Background(), drainBudget)
		defer cancel()
		err := server.Shutdown(shutCtx)
		if errors.Is(err, context.DeadlineExceeded) {
			server.Close()
		}
		<-exited
		return err
	})
	fmt.Fprintf(stdout, "selectd: measuring %d nodes, serving on %s\n",
		src.Topology().NumNodes(), ln.Addr())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Fprintln(stdout, "\nselectd: shutting down")
		return nil
	}
}

// parsePeerList parses "id=url,id=url" into a map; empty input is an
// empty map.
func parsePeerList(s string) (map[string]string, error) {
	out := make(map[string]string)
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad peer entry %q (want id=url)", part)
		}
		out[id] = url
	}
	return out, nil
}

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
// when a sustained load shift makes a better placement available:
//
//	selectd ... -rebalance -rebalance-min-gain 0.25
//	curl localhost:8800/migrations
//	curl -X POST localhost:8800/migrations/lease-0/apply
//
// With -rebalance-auto confirmed proposals are applied without operator
// intervention (atomic reserve-new-then-release-old handover).
//
// SIGINT/SIGTERM shut the daemon down gracefully: in-flight requests
// drain (5s budget), the rebalance controller stops (waiting out any
// in-flight handover), and the ledger is flushed before exit.
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
	leaseSweep            time.Duration
	residualCheck         bool

	batchWindow time.Duration
	batchMax    int

	planCache int
	hierarchy bool

	rebalance        bool
	rebalanceAuto    bool
	rebalanceMinGain float64
	rebalanceCost    float64
	rebalanceConfirm int
	rebalanceCool    time.Duration
	rebalanceBudget  int

	traceOff      bool
	traceCapacity int
	traceSlow     time.Duration
	traceSample   float64

	replicaID       string
	replicaPeers    string
	replicaListen   string
	replicaDir      string
	peerClientURLs  string
	electionTimeout time.Duration
	heartbeat       time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.listen, "listen", "127.0.0.1:8800", "HTTP listen address")
	flag.StringVar(&o.agents, "agents", "", "base agent address (node i at port+i)")
	flag.IntVar(&o.nodeCnt, "nodes", 0, "agent count for topology discovery")
	flag.BoolVar(&o.stdin, "stdin", false, "read a topology document from stdin and serve a synthetic source")
	flag.DurationVar(&o.period, "period", 2*time.Second, "measurement polling period")
	flag.BoolVar(&o.debug, "debug", false, "serve net/http/pprof under /debug/pprof/")
	flag.DurationVar(&o.connectTimeout, "connect-timeout", 2*time.Second, "agent TCP connect deadline")
	flag.DurationVar(&o.ioTimeout, "io-timeout", 2*time.Second, "agent request/response deadline")
	flag.BoolVar(&o.allowPartial, "allow-partial", false, "start with the reachable subset of the agent fleet (discovery still needs all agents)")
	flag.DurationVar(&o.maxStale, "max-stale", 0, "serve last-known-good measurements at most this old; 0 = forever")
	flag.BoolVar(&o.excludeStale, "exclude-stale", false, "drop nodes with stale measurements from /select candidates (needs -max-stale)")
	flag.StringVar(&o.leaseDir, "lease-dir", "", "directory for the reservation ledger's write-ahead log; leases survive restarts (empty = in-memory only)")
	flag.DurationVar(&o.leaseTTL, "lease-ttl", 30*time.Second, "default lease time to live when a request names none")
	flag.DurationVar(&o.leaseMaxTTL, "lease-max-ttl", 10*time.Minute, "ceiling on any requested lease TTL")
	flag.DurationVar(&o.leaseSweep, "lease-sweep", 5*time.Second, "interval of the background lease-expiry sweeper")
	flag.BoolVar(&o.residualCheck, "residual-check", false, "cross-check the ledger's incremental residual view against a full recompute on every derivation (debug; panics on divergence)")
	flag.DurationVar(&o.batchWindow, "batch-window", 0, "epoch-batch admission window: queue concurrent leased selects up to this long and commit them as one WAL record (0 = serial admission)")
	flag.IntVar(&o.batchMax, "batch-max", 64, "flush an admission batch early once it holds this many requests")
	flag.IntVar(&o.planCache, "plan-cache", 0, "max plans memoized per snapshot/ledger epoch (0 = default 256, negative = disable caching)")
	flag.BoolVar(&o.hierarchy, "hierarchy", false, "answer plain sweep selects via cluster-first hierarchical selection (exact-equivalent quotient sweep with flat fallback; keeps select latency sub-millisecond on 10k+-node topologies)")
	flag.BoolVar(&o.rebalance, "rebalance", false, "run the placement rebalance controller in advisory mode (proposals via /migrations, applied on request)")
	flag.BoolVar(&o.rebalanceAuto, "rebalance-auto", false, "apply confirmed migration proposals automatically (implies -rebalance)")
	flag.Float64Var(&o.rebalanceMinGain, "rebalance-min-gain", 0.25, "minimum relative minresource gain before a migration is proposed")
	flag.Float64Var(&o.rebalanceCost, "rebalance-cost", 0, "fixed handover cost subtracted from the candidate score before the gain test")
	flag.IntVar(&o.rebalanceConfirm, "rebalance-confirm", 2, "consecutive epochs the advisor must repeat a destination before it becomes a proposal")
	flag.DurationVar(&o.rebalanceCool, "rebalance-cooldown", time.Minute, "per-lease quiet period after a handover before it may move again")
	flag.IntVar(&o.rebalanceBudget, "rebalance-budget", 1, "maximum new proposals (advisory) or handovers (auto) per epoch")
	flag.BoolVar(&o.traceOff, "trace-off", false, "disable request tracing (X-Request-ID correlation stays on)")
	flag.IntVar(&o.traceCapacity, "trace-capacity", 0, "retained traces per class — error/slow and sampled (0 = default 128)")
	flag.DurationVar(&o.traceSlow, "trace-slow", 0, "latency above which a trace is always retained (0 = default 250ms)")
	flag.Float64Var(&o.traceSample, "trace-sample", 0, "fraction of fast healthy traces to keep, 0..1 (0 = default 0.1, negative = none)")
	flag.StringVar(&o.replicaID, "replica-id", "", "this replica's name in a replicated cluster (empty = standalone)")
	flag.StringVar(&o.replicaPeers, "replica-peers", "", "comma-separated id=url pairs of the OTHER replicas' RPC endpoints (e.g. b=http://h2:8811,c=http://h3:8811)")
	flag.StringVar(&o.replicaListen, "replica-listen", "", "listen address for the replica RPC server (required with -replica-peers)")
	flag.StringVar(&o.replicaDir, "replica-dir", "", "directory for the replicated log and term state (required with -replica-id)")
	flag.StringVar(&o.peerClientURLs, "peer-urls", "", "comma-separated id=url pairs of every replica's CLIENT endpoint, for 307 write redirects")
	flag.DurationVar(&o.electionTimeout, "election-timeout", 500*time.Millisecond, "replica heartbeat-loss timeout before a new election")
	flag.DurationVar(&o.heartbeat, "replica-heartbeat", 100*time.Millisecond, "leader append/heartbeat interval")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "selectd:", err)
		os.Exit(1)
	}
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

func run(o options) error {
	listen, agents, nodeCnt := o.listen, o.agents, o.nodeCnt
	stdin, period, debug := o.stdin, o.period, o.debug
	var src remos.Source
	switch {
	case stdin:
		g, snap, err := topology.ReadDocument(os.Stdin)
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
		go func() {
			t := time.NewTicker(period)
			for range t.C {
				st.Advance(period.Seconds())
			}
		}()
		src = st
	case agents != "":
		if nodeCnt <= 0 {
			return fmt.Errorf("-agents needs -nodes (the agent count)")
		}
		host, portStr, err := net.SplitHostPort(agents)
		if err != nil {
			return err
		}
		base, err := strconv.Atoi(portStr)
		if err != nil {
			return err
		}
		addrs := make([]string, nodeCnt)
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
		if un := ns.Unreachable(); len(un) > 0 {
			g := ns.Topology()
			names := make([]string, len(un))
			for i, id := range un {
				names[i] = g.Node(id).Name
			}
			fmt.Printf("selectd: starting degraded, %d/%d agents unreachable: %v\n",
				len(un), nodeCnt, names)
		}
		src = ns
	default:
		return fmt.Errorf("either -stdin or -agents is required")
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

	// The reservation ledger. With -lease-dir it is backed by a write-ahead
	// log, so active leases (reserved capacity) survive a daemon restart.
	// In a replicated cluster the ledger is built bare here and wired to
	// the replica node below: durability and recovery come from the
	// replicated log instead of a local WAL.
	leaseOpts := lease.Options{DefaultTTL: o.leaseTTL, MaxTTL: o.leaseMaxTTL, CrossCheck: o.residualCheck}
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
	if st := ledger.Stats(); st.Recovered > 0 || st.RecoverySkipped > 0 {
		fmt.Printf("selectd: recovered %d leases from %s (%d skipped)\n",
			st.Recovered, o.leaseDir, st.RecoverySkipped)
	}

	// Cluster bootstrap: start the consensus node around the ledger's
	// Apply, then hand the ledger its Replicate. The ledger's ID counter is
	// advanced past every lease sequence anywhere in the recovered log —
	// committed or rolled back — so no ID is ever reused across failover.
	var node *replica.Node
	var peerRPC, peerClients map[string]string
	if replicated {
		peerRPC, err = parsePeerList(o.replicaPeers)
		if err != nil {
			return fmt.Errorf("-replica-peers: %w", err)
		}
		peerClients, err = parsePeerList(o.peerClientURLs)
		if err != nil {
			return fmt.Errorf("-peer-urls: %w", err)
		}
		if len(peerRPC) > 0 && o.replicaListen == "" {
			return fmt.Errorf("-replica-peers needs -replica-listen")
		}
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
		defer node.Stop()
		ledger.SetReplicator(node)
		ledger.AdvanceSeq(node.MaxLeaseSeq())
		fmt.Printf("selectd: replica %s with peers %v, log at %s\n",
			o.replicaID, peerIDs, o.replicaDir)
	}

	cfg := selectsvc.Config{
		Collector: remos.CollectorConfig{
			Period:      period.Seconds(),
			MaxStaleAge: o.maxStale.Seconds(),
		},
		DefaultMode:   remos.Window,
		Seed:          time.Now().UnixNano(),
		ExcludeStale:  o.excludeStale,
		Ledger:        ledger,
		PlanCacheSize: o.planCache,
		Hierarchy:     o.hierarchy,
		BatchWindow:   o.batchWindow,
		BatchMax:      o.batchMax,
		Trace: reqtrace.Config{
			Disabled:      o.traceOff,
			Capacity:      o.traceCapacity,
			SlowThreshold: o.traceSlow,
			SampleRate:    o.traceSample,
		},
	}
	if node != nil {
		cfg.Replica = node
		cfg.PeerClientURLs = peerClients
	}
	if o.rebalance || o.rebalanceAuto {
		cfg.Rebalance = &rebalance.Policy{
			MinGain:       o.rebalanceMinGain,
			MigrationCost: o.rebalanceCost,
			ConfirmEpochs: o.rebalanceConfirm,
			Cooldown:      o.rebalanceCool,
			MaxPerEpoch:   o.rebalanceBudget,
			Auto:          o.rebalanceAuto,
		}
	}
	svc := selectsvc.New(src, cfg)
	start := time.Now()
	svc.Registry().NewGaugeFunc("process_uptime_seconds",
		"Seconds since the daemon started.",
		func() float64 { return time.Since(start).Seconds() })

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := svc.Poll(); err != nil {
		return err
	}
	// Background measurement loop. Its stop function blocks until any
	// in-flight poll (which sweeps the lease ledger) has returned, so the
	// shutdown paths below can order ingestion-stop before ledger close.
	stopPolling := svc.StartPolling(period, func(err error) {
		fmt.Fprintln(os.Stderr, "selectd: poll:", err)
	})
	// Expire abandoned leases even between polls and requests.
	stopSweeper := ledger.StartSweeper(o.leaseSweep)

	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	if debug {
		mountPprof(mux)
	}
	fmt.Printf("selectd: measuring %d nodes, serving on %s\n",
		src.Topology().NumNodes(), listen)

	server := &http.Server{Addr: listen, Handler: mux}
	errc := make(chan error, 1)
	// The replica RPC plane gets its own listener so peer traffic (votes,
	// log streams) is never queued behind client requests.
	var replicaServer *http.Server
	if node != nil && o.replicaListen != "" {
		replicaServer = &http.Server{Addr: o.replicaListen, Handler: replica.Handler(node)}
		go func() {
			if err := replicaServer.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				errc <- fmt.Errorf("replica server: %w", err)
			}
		}()
	}
	go func() { errc <- server.ListenAndServe() }()
	select {
	case err := <-errc:
		stopPolling()
		svc.StopRebalance()
		svc.StopBatching()
		stopSweeper()
		if replicaServer != nil {
			replicaServer.Close()
		}
		ledger.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain in-flight requests, stop
	// the rebalance controller (Close blocks until any in-flight handover
	// has committed to the ledger), then flush the ledger so reservations
	// — including that last handover — are on disk before exit.
	fmt.Println("\nselectd: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutErr := server.Shutdown(shutCtx)
	if errors.Is(shutErr, context.DeadlineExceeded) {
		server.Close()
	}
	// Measurement ingestion stops first: after stopPolling returns, no
	// poll (and no poll-driven ledger sweep) is in flight — mirroring the
	// StopRebalance-before-flush ordering below.
	stopPolling()
	svc.StopRebalance()
	// Batched admissions drain before the ledger flushes: Close blocks
	// until every queued acquire has committed (or failed) through the WAL.
	svc.StopBatching()
	stopSweeper()
	if replicaServer != nil {
		replicaServer.Close()
	}
	if node != nil {
		node.Stop() // flushes and closes the replicated log
	}
	if err := ledger.Close(); err != nil {
		return fmt.Errorf("lease ledger close: %w", err)
	}
	return shutErr
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

// Command remosd runs a fleet of Remos measurement agents — one TCP server
// per node of a topology — backed by a synthetic status source whose
// counters advance in real time. It demonstrates the wire path a collector
// (cmd/remosquery) uses, mirroring the SNMP daemons of the original Remos
// deployment.
//
// Usage:
//
//	topogen -topo cmu -snapshot | remosd -listen 127.0.0.1:7700
//
// Agents listen on consecutive ports starting at the given address; the
// node-to-address mapping is printed on startup.
//
// With -http, an observability endpoint is served alongside the fleet:
//
//	remosd -listen 127.0.0.1:7700 -http 127.0.0.1:7790
//	curl localhost:7790/metrics      # ticks, per-op agent request counts
//	curl localhost:7790/debug/vars   # JSON registry dump
//
// Adding -debug also serves net/http/pprof under /debug/pprof/.
//
// Fault injection (hung, crashed, slow and byte-corrupting agents) is
// agent.ChaosProxy's job; `make chaos` drives a seeded fault schedule
// against a loopback fleet.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"nodeselect/internal/metrics"
	"nodeselect/internal/remos"
	"nodeselect/internal/remos/agent"
	"nodeselect/internal/topology"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7700", "base address; node i listens on port+i")
		tick     = flag.Duration("tick", time.Second, "interval at which the synthetic clock advances")
		httpAddr = flag.String("http", "", "observability HTTP address (/metrics, /debug/vars); empty disables")
		debug    = flag.Bool("debug", false, "with -http, also serve net/http/pprof under /debug/pprof/")
	)
	flag.Parse()
	if err := run(*listen, *tick, *httpAddr, *debug); err != nil {
		fmt.Fprintln(os.Stderr, "remosd:", err)
		os.Exit(1)
	}
}

// fleetMetrics is remosd's own instrument set.
type fleetMetrics struct {
	ticks    *metrics.Counter
	requests *metrics.CounterVec
}

func newFleetMetrics(reg *metrics.Registry, src *remos.StaticSource) *fleetMetrics {
	reg.NewGaugeFunc("remosd_clock_seconds",
		"Current synthetic measurement clock.", src.Now)
	return &fleetMetrics{
		ticks: reg.NewCounter("remosd_ticks_total",
			"Synthetic clock advances."),
		requests: reg.NewCounterVec("remosd_agent_requests_total",
			"Agent RPC requests served across the fleet, by operation.", "op"),
	}
}

func run(listen string, tick time.Duration, httpAddr string, debug bool) error {
	g, snap, err := topology.ReadDocument(os.Stdin)
	if err != nil {
		return err
	}
	if snap == nil {
		snap = topology.NewSnapshot(g)
	}
	src, err := remos.FromSnapshot(snap)
	if err != nil {
		return err
	}

	host, portStr, err := net.SplitHostPort(listen)
	if err != nil {
		return err
	}
	basePort, err := strconv.Atoi(portStr)
	if err != nil {
		return fmt.Errorf("bad port %q: %w", portStr, err)
	}

	reg := metrics.NewRegistry()
	fm := newFleetMetrics(reg, src)

	agents := make([]*agent.Agent, 0, g.NumNodes())
	defer func() {
		for _, a := range agents {
			a.Close()
		}
	}()
	for node := 0; node < g.NumNodes(); node++ {
		a := agent.NewAgent(src, node)
		a.OnRequest = func(op string) { fm.requests.With(op).Inc() }
		addr, err := a.Listen(net.JoinHostPort(host, strconv.Itoa(basePort+node)))
		if err != nil {
			return fmt.Errorf("node %s: %w", g.Node(node).Name, err)
		}
		agents = append(agents, a)
		fmt.Printf("%-12s %s\n", g.Node(node).Name, addr)
	}
	reg.NewGauge("remosd_agents", "Agents serving in this fleet.").Set(float64(len(agents)))

	var server *http.Server
	if httpAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", reg.Handler())
		mux.Handle("GET /debug/vars", reg.JSONHandler())
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{"agents": len(agents), "clock": src.Now()})
		})
		if debug {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		server = &http.Server{Addr: httpAddr, Handler: mux}
		go func() {
			if err := server.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "remosd: http:", err)
			}
		}()
		fmt.Printf("remosd: observability on http://%s/metrics\n", httpAddr)
	}
	fmt.Println("remosd: serving; ctrl-c to stop")

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			src.Advance(tick.Seconds())
			fm.ticks.Inc()
		case <-stop:
			// Graceful: drain in-flight observability requests before the
			// deferred agent teardown closes the fleet.
			fmt.Println("\nremosd: shutting down")
			if server != nil {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := server.Shutdown(ctx); err != nil {
					server.Close()
				}
			}
			return nil
		}
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nodeselect/internal/appspec"
	"nodeselect/internal/core"
	"nodeselect/internal/hierarchy"
	"nodeselect/internal/lease"
	"nodeselect/internal/randx"
	"nodeselect/internal/remos"
	"nodeselect/internal/remos/agent"
	"nodeselect/internal/reqtrace"
	"nodeselect/internal/selectsvc"
	"nodeselect/internal/topology"
)

// Sample sizes of the layer pass. The 10k-node workload takes fewer of the
// expensive samples so the pass stays within a run's time.
const (
	perClass      = 300 // requests sampled per class
	perClassLarge = 120 // the same at 10k nodes (a select is ~20 ms there)
	liveLeases    = 60  // leases held while lease costs are measured
)

// layerPass rebuilds a workload's topology, snapshot and ledger state in
// this process and times the calls into each layer's public functions, in
// the order selectsvc's handler makes them, under spans.
type layerPass struct {
	w    workload
	in   *inputs
	reqs []request
	log  *spanLog
	out  map[string]float64
	dir  string
	// handlerP50 is the in-process handler's median time in microseconds,
	// by class (adv_repeat: the cache-hit path).
	handlerP50 map[string]float64

	requests int // span request IDs handed out
}

func (lp *layerPass) large() bool { return lp.in.graph.NumNodes() > 5000 }

func (lp *layerPass) p50(name string) float64 { return median(lp.log.durations(name)) }

func (lp *layerPass) nextRequest() int {
	lp.requests++
	return 1_000_000 + lp.requests // apart from the replay's sample indices
}

// sample returns up to n of the schedule's requests of a class.
func (lp *layerPass) sample(class string, n int) []*request {
	var out []*request
	for i := range lp.reqs {
		if lp.reqs[i].class == class {
			out = append(out, &lp.reqs[i])
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// recorder is the least http.ResponseWriter a handler can be served into.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(s int)   { r.status = s }
func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(b)
}

// serve calls a handler directly, as net/http would after parsing.
func serve(h http.Handler, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	rec := &recorder{header: http.Header{}}
	h.ServeHTTP(rec, req)
	return rec.status, rec.body.Bytes(), nil
}

func serveOK(h http.Handler, method, path string, body []byte) ([]byte, error) {
	status, out, err := serve(h, method, path, body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s %s in process: status %d: %.160s", method, path, status, out)
	}
	return out, nil
}

func (lp *layerPass) run() error {
	lp.handlerP50 = map[string]float64{}
	w, log, out := lp.w, lp.log, lp.out
	period := w.period.Seconds()
	n := perClass
	if lp.large() {
		n = perClassLarge
	}

	// topology: decoding the document; the all-pairs route table, which
	// the 10k-node workload must never build.
	var err error
	for i := 0; i < 5; i++ {
		log.timed("topology.doc_decode", -1, -1, func() {
			_, _, err = topology.ReadDocument(bytes.NewReader(lp.in.doc))
		})
		if err != nil {
			return err
		}
	}
	out["topology.doc_decode_ms"] = lp.p50("topology.doc_decode") / 1e3
	if !w.hierarchy {
		var mb []float64
		for i := 0; i < 3; i++ {
			g, _, err := topology.ReadDocument(bytes.NewReader(lp.in.doc)) // a fresh graph: its table is not built yet
			if err != nil {
				return err
			}
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			log.timed("topology.routes_build", -1, -1, func() { g.Routes() })
			runtime.GC()
			runtime.ReadMemStats(&m1)
			mb = append(mb, (float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/1e6)
			runtime.KeepAlive(g)
		}
		out["topology.routes_build_ms"] = lp.p50("topology.routes_build") / 1e3
		out["topology.routes_mb"] = median(mb)
	}

	// remos and remos/agent: the measurement plane as selectd runs it, a
	// static source read directly or a loopback agent fleet read over TCP.
	static, err := remos.FromSnapshot(lp.in.snap)
	if err != nil {
		return err
	}
	var src remos.Source = static
	refresh := func() error { static.Advance(period); return nil }
	if w.agents {
		fleet, err := agent.StartFleet(static)
		if err != nil {
			return err
		}
		defer fleet.Close()
		var ns *agent.NetSource
		log.timed("agent.discover", -1, -1, func() { ns, err = agent.DiscoverSource(fleet.Addrs()) })
		if err != nil {
			return err
		}
		defer ns.Close()
		for i := 0; i < 30; i++ {
			static.Advance(period)
			log.timed("agent.refresh", -1, -1, func() { err = ns.Refresh() })
			if err != nil {
				return err
			}
		}
		out["agent.discover_ms"] = lp.p50("agent.discover") / 1e3
		out["agent.poll_rtt_us"] = lp.p50("agent.refresh") / float64(static.Topology().NumNodes())
		src = ns
		refresh = func() error { static.Advance(period); return ns.Refresh() }
	}
	g := src.Topology()
	col := remos.NewCollector(src, remos.CollectorConfig{Period: period})
	for i := 0; i < 8; i++ {
		if err := refresh(); err != nil {
			return err
		}
		log.timed("remos.poll", -1, -1, col.Poll)
	}
	switch {
	case w.agents:
	case lp.large():
		out["remos.poll_ms.static10k"] = lp.p50("remos.poll") / 1e3
	default:
		out["remos.poll_ms.static200"] = lp.p50("remos.poll") / 1e3
	}
	var snap *topology.Snapshot
	for i := 0; i < n/2; i++ {
		log.timed("remos.snapshot", -1, -1, func() { snap, err = col.Snapshot(remos.Window, false) })
		if err != nil {
			return err
		}
	}

	// lease: the residual view with nothing reserved (every workload's
	// advisory path takes it).
	empty, err := lease.New(g, lease.Options{})
	if err != nil {
		return err
	}
	for i := 0; i < n/2; i++ {
		log.timed("lease.residual.empty", -1, -1, func() { _ = empty.Residual(snap) })
	}

	// The service itself, for the handler spans.
	newService := func(led *lease.Ledger, traceOff bool) (http.Handler, error) {
		svc := selectsvc.New(src, selectsvc.Config{
			Collector:   remos.CollectorConfig{Period: period},
			DefaultMode: remos.Window,
			Seed:        1,
			Hierarchy:   w.hierarchy,
			Ledger:      led,
			Trace:       reqtrace.Config{Disabled: traceOff},
		})
		for i := 0; i < 2; i++ {
			if err := refresh(); err != nil {
				return nil, err
			}
			if err := svc.Poll(); err != nil {
				return nil, err
			}
		}
		return svc.Handler(), nil
	}
	handler, err := newService(nil, false)
	if err != nil {
		return err
	}

	if w.has(advDistinct) {
		if err := lp.distinctPass(handler, col, empty, g, lp.sample(advDistinct, n)); err != nil {
			return err
		}
	}
	if w.has(advRepeat) && !w.has(leasedClass) {
		for i := range repeatPool { // prime the cache: the timed calls all hit
			body, _ := json.Marshal(repeatPool[i]) // fixed struct type: cannot fail
			if _, err := serveOK(handler, "POST", "/select", body); err != nil {
				return err
			}
		}
		for _, r := range lp.sample(advRepeat, n) {
			var err error
			log.timed("selectsvc.handler.adv_hit", -1, lp.nextRequest(), func() {
				_, err = serveOK(handler, "POST", "/select", r.body)
			})
			if err != nil {
				return err
			}
		}
	}
	if w.has(specClass) {
		if err := lp.specPass(handler, col, empty, lp.sample(specClass, n)); err != nil {
			return err
		}
	}
	if w.has(leasedClass) {
		if err := lp.leasePass(col, g, newService, lp.sample(leasedClass, n)); err != nil {
			return err
		}
	}
	if w.has(advRepeat) {
		if err := lp.tracingCost(newService); err != nil {
			return err
		}
	}
	for i := 0; i < 50; i++ {
		var err error
		log.timed("metrics.render", -1, -1, func() { _, err = serveOK(handler, "GET", "/metrics", nil) })
		if err != nil {
			return err
		}
	}

	out["remos.snapshot_us"] = lp.p50("remos.snapshot")
	out["lease.residual_us.empty"] = lp.p50("lease.residual.empty")
	out["selectsvc.decode_us"] = lp.p50("selectsvc.decode")
	out["selectsvc.encode_us"] = lp.p50("selectsvc.encode")
	out["metrics.render_us"] = lp.p50("metrics.render")
	for class, name := range map[string]string{
		advRepeat: "adv_hit", advDistinct: "adv_miss", specClass: "spec", leasedClass: "leased",
	} {
		v := lp.p50("selectsvc.handler." + name)
		out["selectsvc.handler_us."+name] = v
		lp.handlerP50[class] = v
	}
	return nil
}

// distinctPass takes cache-missing plain selects through the layers one
// call at a time — decode, snapshot, residual view, sweep (flat or
// quotient), encode — and then through the whole handler, so the handler's
// self time is what is left after its children.
func (lp *layerPass) distinctPass(handler http.Handler, col *remos.Collector, ledger *lease.Ledger, g *topology.Graph, sample []*request) error {
	log, out := lp.log, lp.out
	var (
		part     *hierarchy.Partition
		self     []float64
		quotient int
		results  []core.Result
		creqs    []core.Request
		snap     *topology.Snapshot
	)
	for _, r := range sample {
		rid := lp.nextRequest()
		var (
			body     selectsvc.SelectRequest
			residual *topology.Snapshot
			res      core.Result
			err      error
		)
		direct := log.begin("layers.adv_miss", -1, rid)
		log.timed("selectsvc.decode", direct, rid, func() { err = json.NewDecoder(bytes.NewReader(r.body)).Decode(&body) })
		if err != nil {
			return err
		}
		log.timed("remos.snapshot", direct, rid, func() { snap, err = col.Snapshot(remos.Window, false) })
		if err != nil {
			return err
		}
		log.timed("lease.residual.empty", direct, rid, func() { residual = ledger.Residual(snap) })
		creq := core.Request{M: body.M, MinCPU: body.MinCPU}
		if lp.w.hierarchy {
			if part == nil { // once per measurement epoch, as the service caches it
				for i := 0; i < 3; i++ {
					log.timed("hierarchy.partition_build", direct, rid, func() { part = hierarchy.Build(residual) })
				}
			}
			var path hierarchy.Path
			log.timed("hierarchy.select", direct, rid, func() {
				res, path, err = hierarchy.SelectCtx(context.Background(), body.Algo, residual, part, creq, nil, core.Options{})
			})
			if path == hierarchy.PathQuotient {
				quotient++
			}
		} else {
			// The handler records the sweep's decision trace; so does this.
			var steps []core.SweepStep
			opts := core.Options{Observer: func(st core.SweepStep) { steps = append(steps, st) }}
			log.timed("core.sweep."+body.Algo, direct, rid, func() { res, err = core.SelectOpt(body.Algo, residual, creq, nil, opts) })
		}
		if err != nil {
			return fmt.Errorf("select %s in process: %w", r.body, err)
		}
		resp := selectsvc.SelectResponse{
			Nodes: res.Names(g), MinCPU: res.MinCPU, PairMinBW: res.PairMinBW,
			MinResource: res.MinResource, MeasuredAt: snap.Time,
		}
		log.timed("selectsvc.encode", direct, rid, func() { err = json.NewEncoder(io.Discard).Encode(resp) })
		if err != nil {
			return err
		}
		children := log.end(direct)
		whole := log.timed("selectsvc.handler.adv_miss", -1, rid, func() { _, err = serveOK(handler, "POST", "/select", r.body) })
		if err != nil {
			return err
		}
		self = append(self, us(whole-children))
		results, creqs = append(results, res), append(creqs, creq)
	}
	out["selectsvc.self_us.adv_miss"] = median(self)
	if lp.w.hierarchy {
		// The partition build was a child of the first request only; it is
		// reported on its own.
		out["hierarchy.partition_build_ms"] = lp.p50("hierarchy.partition_build") / 1e3
		out["hierarchy.select_us"] = lp.p50("hierarchy.select")
		out["hierarchy.clusters"] = float64(part.Clusters())
		out["hierarchy.collapsed_share"] = share(part.CollapsedNodes(), len(g.ComputeNodes()))
		if _, ok := out["hierarchy.quotient_share"]; !ok {
			out["hierarchy.quotient_share"] = share(quotient, len(sample))
		}
		return nil
	}
	out["core.sweep_us.balanced"] = lp.p50("core.sweep." + core.AlgoBalanced)
	out["core.sweep_us.bandwidth"] = lp.p50("core.sweep." + core.AlgoBandwidth)
	for i, res := range results {
		log.timed("core.score", -1, -1, func() { _ = core.Score(snap, res.Nodes, creqs[i]) })
	}
	out["core.score_us"] = lp.p50("core.score")
	// Heap objects per sweep, over the sample (nothing else runs here).
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, creq := range creqs {
		if _, err := core.SelectOpt(core.AlgoBalanced, snap, creq, nil, core.Options{}); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	out["core.sweep_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(max(len(creqs), 1))
	return nil
}

// specPass times appspec's placement for each of the three applications and
// the handler on the same documents.
func (lp *layerPass) specPass(handler http.Handler, col *remos.Collector, ledger *lease.Ledger, sample []*request) error {
	log := lp.log
	snap, err := col.Snapshot(remos.Window, false)
	if err != nil {
		return err
	}
	residual := ledger.Residual(snap)
	for _, r := range sample {
		rid := lp.nextRequest()
		var body selectsvc.SelectRequest
		if err := json.Unmarshal(r.body, &body); err != nil {
			return err
		}
		log.timed("appspec.select."+body.Spec.Name, -1, rid, func() {
			_, err = appspec.SelectForSpec(residual, body.Spec, core.AlgoBalanced, randx.New(1))
		})
		if err != nil {
			return err
		}
		log.timed("selectsvc.handler.spec", -1, rid, func() { _, err = serveOK(handler, "POST", "/select", r.body) })
		if err != nil {
			return err
		}
	}
	for _, s := range specPool {
		lp.out["appspec.select_us."+s.Name] = lp.p50("appspec.select." + s.Name)
	}
	return nil
}

// leasePass measures the ledger with about liveLeases reservations held,
// in memory and behind a write-ahead log, and then the handler on leased
// selects interleaved with cacheable ones (each commit flushes the plan
// cache, so the first repeat after it misses and the second hits).
func (lp *layerPass) leasePass(col *remos.Collector, g *topology.Graph, newService func(*lease.Ledger, bool) (http.Handler, error), sample []*request) error {
	log, out := lp.log, lp.out
	snap, err := col.Snapshot(remos.Window, false)
	if err != nil {
		return err
	}
	openWAL := func(name string) (*lease.Ledger, string, error) {
		dir := filepath.Join(lp.dir, name)
		wal, err := lease.OpenWAL(dir)
		if err != nil {
			return nil, "", err
		}
		led, err := lease.New(g, lease.Options{WAL: wal})
		return led, filepath.Join(dir, "ledger.wal.jsonl"), err
	}
	mem, err := lease.New(g, lease.Options{})
	if err != nil {
		return err
	}
	wal, walPath, err := openWAL("ledger")
	if err != nil {
		return err
	}
	defer wal.Close()

	// One ledger at a time: acquire with the sweep as its placement
	// callback (the ledger's own time is the acquire less the callback),
	// renew half, release the oldest beyond liveLeases.
	ctx := context.Background()
	var walBytes, walOps, lastSize int64
	grew := func() {
		if st, err := os.Stat(walPath); err == nil {
			if d := st.Size() - lastSize; d > 0 { // a compaction shrinks the file; only appends count
				walBytes += d
			}
			lastSize = st.Size()
		}
		walOps++
	}
	for _, side := range []struct {
		name string
		led  *lease.Ledger
	}{{"mem", mem}, {"wal", wal}} {
		var live []string
		var own []float64
		for _, r := range sample {
			rid := lp.nextRequest()
			var body selectsvc.SelectRequest
			if err := json.Unmarshal(r.body, &body); err != nil {
				return err
			}
			var placing time.Duration
			place := func(_ context.Context, residual *topology.Snapshot, minBW float64) ([]int, error) {
				var res core.Result
				var err error
				creq := core.Request{M: body.M, MinCPU: body.Demand.CPU, MinBW: minBW}
				placing += log.timed("lease.place", -1, rid, func() {
					res, err = core.SelectOpt(body.Algo, residual, creq, nil, core.Options{})
				})
				return res.Nodes, err
			}
			var info lease.Info
			whole := log.timed("lease.acquire."+side.name, -1, rid, func() {
				info, err = side.led.AcquireShaped(ctx, snap, *body.Demand, 30*time.Second, &lease.Shape{M: body.M, Algo: body.Algo}, place)
			})
			if err != nil {
				return fmt.Errorf("acquire in process: %w", err)
			}
			own = append(own, us(whole-placing))
			live = append(live, info.ID)
			if side.name == "mem" {
				log.timed("lease.residual.loaded", -1, rid, func() { _ = side.led.Residual(snap) })
				if len(live) > liveLeases {
					if err := side.led.Release(ctx, live[0]); err != nil {
						return err
					}
					live = live[1:]
				}
				continue
			}
			grew()
			if r.renew {
				log.timed("lease.renew", -1, rid, func() { _, err = side.led.Renew(ctx, info.ID, 30*time.Second) })
				if err != nil {
					return err
				}
				grew()
			}
			if len(live) > liveLeases {
				log.timed("lease.release", -1, rid, func() { err = side.led.Release(ctx, live[0]) })
				if err != nil {
					return err
				}
				live = live[1:]
				grew()
			}
		}
		if side.name == "mem" {
			out["lease.acquire_us"] = median(own)
		} else {
			out["lease.acquire_wal_us"] = median(own)
		}
	}
	out["lease.wal_fsync_us"] = out["lease.acquire_wal_us"] - out["lease.acquire_us"]
	out["lease.residual_us.loaded"] = lp.p50("lease.residual.loaded")
	out["lease.renew_us"] = lp.p50("lease.renew")
	out["lease.release_us"] = lp.p50("lease.release")
	out["lease.wal_bytes_per_op"] = float64(walBytes) / float64(max(walOps, 1))

	// The handler, on a service with its own WAL-backed ledger.
	svcLedger, _, err := openWAL("service")
	if err != nil {
		return err
	}
	defer svcLedger.Close()
	handler, err := newService(svcLedger, false)
	if err != nil {
		return err
	}
	var live []string
	for i, r := range sample {
		rid := lp.nextRequest()
		var reply []byte
		log.timed("selectsvc.handler.leased", -1, rid, func() { reply, err = serveOK(handler, "POST", "/select", r.body) })
		if err != nil {
			return err
		}
		var sr selectReply
		if err := json.Unmarshal(reply, &sr); err != nil || sr.Lease == nil {
			return fmt.Errorf("leased select in process answered %.160s", reply)
		}
		live = append(live, sr.Lease.ID)
		repeat, _ := json.Marshal(repeatPool[i%len(repeatPool)]) // fixed struct type: cannot fail
		for _, name := range []string{"adv_miss", "adv_hit"} {
			log.timed("selectsvc.handler."+name, -1, rid, func() { _, err = serveOK(handler, "POST", "/select", repeat) })
			if err != nil {
				return err
			}
		}
		if len(live) > liveLeases {
			if _, err := serveOK(handler, "DELETE", "/leases/"+live[0], nil); err != nil {
				return err
			}
			live = live[1:]
		}
	}
	return nil
}

// tracingCost compares the cache-hit handler with request tracing at its
// default and disabled, in alternating batches so host drift hits both.
func (lp *layerPass) tracingCost(newService func(*lease.Ledger, bool) (http.Handler, error)) error {
	on, err := newService(nil, false)
	if err != nil {
		return err
	}
	off, err := newService(nil, true)
	if err != nil {
		return err
	}
	body, _ := json.Marshal(repeatPool[0]) // fixed struct type: cannot fail
	for _, h := range []http.Handler{on, off} {
		if _, err := serveOK(h, "POST", "/select", body); err != nil {
			return err
		}
	}
	for round := 0; round < 8; round++ {
		for _, side := range []struct {
			name string
			h    http.Handler
		}{{"reqtrace.on", on}, {"reqtrace.off", off}} {
			for i := 0; i < 50; i++ {
				var err error
				lp.log.timed(side.name, -1, -1, func() { _, err = serveOK(side.h, "POST", "/select", body) })
				if err != nil {
					return err
				}
			}
		}
	}
	if base := lp.p50("reqtrace.off"); base > 0 {
		lp.out["reqtrace.overhead_pct"] = 100 * (lp.p50("reqtrace.on") - base) / base
	}
	return nil
}

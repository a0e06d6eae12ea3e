package main

import (
	"fmt"
	"path/filepath"
)

// perLayerUnits names every per-layer metric with its unit. A traced run
// reports all of them; one whose layer the workload never calls reads 0.
var perLayerUnits = map[string]string{
	// The issue's end-to-end timing metrics, kept by name but not gated:
	// on the reference host their run-to-run spread exceeds any bound the
	// contract allows (see README, "Baseline and spread").
	"select_p50_ms":  "ms",
	"select_p99_ms":  "ms",
	"throughput_rps": "req/s",
	"cpu_ms_per_req": "ms",
	// Read 0 at the baseline, which a gated metric may not.
	"slo_miss_share": "share",
	"fail_share":     "share",

	"selectsvc.handler_us.adv_hit":       "us",
	"selectsvc.handler_us.adv_miss":      "us",
	"selectsvc.handler_us.spec":          "us",
	"selectsvc.handler_us.leased":        "us",
	"selectsvc.self_us.adv_miss":         "us",
	"selectsvc.decode_us":                "us",
	"selectsvc.encode_us":                "us",
	"selectsvc.http_overhead_us":         "us",
	"selectsvc.plan_cache_hit_ratio":     "share",
	"selectsvc.plan_cache_invalidations": "count",

	"core.sweep_us.balanced":  "us",
	"core.sweep_us.bandwidth": "us",
	"core.score_us":           "us",
	"core.sweep_allocs":       "count",

	"topology.doc_decode_ms":   "ms",
	"topology.routes_build_ms": "ms",
	"topology.routes_mb":       "MB",

	"hierarchy.partition_build_ms": "ms",
	"hierarchy.partition_builds":   "count",
	"hierarchy.select_us":          "us",
	"hierarchy.clusters":           "count",
	"hierarchy.collapsed_share":    "share",
	"hierarchy.quotient_share":     "share",

	"lease.residual_us.empty":  "us",
	"lease.residual_us.loaded": "us",
	"lease.acquire_us":         "us",
	"lease.acquire_wal_us":     "us",
	"lease.wal_fsync_us":       "us",
	"lease.renew_us":           "us",
	"lease.release_us":         "us",
	"lease.wal_bytes_per_op":   "B",
	"lease.reject_share":       "share",

	"remos.poll_ms.static200": "ms",
	"remos.poll_ms.static10k": "ms",
	"remos.snapshot_us":       "us",

	"agent.poll_rtt_us": "us",
	"agent.discover_ms": "ms",

	"appspec.select_us.fft":     "us",
	"appspec.select_us.airshed": "us",
	"appspec.select_us.mri":     "us",

	"reqtrace.overhead_pct": "%",
	"metrics.render_us":     "us",

	"client.service_p50_ms.adv_repeat":   "ms",
	"client.service_p50_ms.adv_distinct": "ms",
	"client.service_p50_ms.spec":         "ms",
	"client.service_p50_ms.leased":       "ms",
	"client.conn_wait_p99_ms":            "ms",
	"client.gen_overshoot_p99_ms":        "ms",
	"client.select_p999_ms":              "ms",
	"client.select_max_ms":               "ms",
	"client.trace_overhead_pct":          "%",
	"selectd.cpu_share":                  "share",
}

// runTraced is the traced pass. First the real processes: one replay whose
// second open-loop half records a client span per operation, with selectd's
// /metrics read before and after. Then the layers: the same topology,
// snapshot and ledger state are rebuilt in this process and a sample of the
// schedule's requests is taken through each layer's public functions in
// handler order, under spans. It reports the per-layer metrics and writes
// the spans to bench/out/trace_<workload>.json.
func runTraced(e *env, w workload, seed int64, seconds int) (*runResult, error) {
	log := newSpanLog()
	rp, err := runReplay(e, w, seed, seconds, 1, log)
	if err != nil {
		return nil, err
	}
	s := rp.summarize()
	out := s.timingMetrics()
	out["slo_miss_share"] = share(s.missed+rp.d.unsent, s.scheduled)
	out["fail_share"] = share(s.failed, s.attempted)
	for _, class := range classes {
		out["client.service_p50_ms."+class] = median(s.serviceByClass[class])
	}
	out["client.conn_wait_p99_ms"] = percentile(sortedCopy(s.wait), 0.99)
	out["client.gen_overshoot_p99_ms"] = percentile(sortedCopy(s.overshoot), 0.99)
	out["client.select_p999_ms"] = percentile(s.sortedLat, 0.999)
	out["client.select_max_ms"] = percentile(s.sortedLat, 1)
	if p := median(s.plainSvc); p > 0 {
		out["client.trace_overhead_pct"] = 100 * (median(s.tracedSvc) - p) / p
	}
	out["selectd.cpu_share"] = s.cpuOpen.Seconds() / rp.ph.open.Seconds()

	// selectd's own counters over the replay. Every adv_distinct is a miss
	// by construction, so what is left of the misses belongs to adv_repeat.
	delta := func(name string) float64 { return rp.after[name] - rp.before[name] }
	sentByClass := s.sentByClass
	hits := delta(`selectsvc_plan_cache_requests_total{result="hit"}`)
	misses := delta(`selectsvc_plan_cache_requests_total{result="miss"}`)
	if w.has(advRepeat) {
		misses -= float64(sentByClass[advDistinct])
	}
	if hits+misses > 0 {
		out["selectsvc.plan_cache_hit_ratio"] = hits / (hits + misses)
	}
	out["selectsvc.plan_cache_invalidations"] = delta("selectsvc_plan_cache_invalidations_total")
	out["hierarchy.partition_builds"] = delta("selectsvc_hierarchy_partition_builds_total")
	if q, f := delta(`selectsvc_hierarchy_requests_total{path="quotient"}`), delta(`selectsvc_hierarchy_requests_total{path="fallback"}`); q+f > 0 {
		out["hierarchy.quotient_share"] = q / (q + f)
	}
	if n := sentByClass[leasedClass]; n > 0 {
		rejects := delta(`selectsvc_admission_rejects_total{kind="node"}`) + delta(`selectsvc_admission_rejects_total{kind="link"}`)
		out["lease.reject_share"] = rejects / float64(n)
	}

	// The layers, in this process.
	lp := &layerPass{w: w, in: rp.in, reqs: rp.d.reqs, log: log, out: out, dir: filepath.Join(e.scratch, "layers")}
	if err := lp.run(); err != nil {
		return nil, fmt.Errorf("layer pass: %w", err)
	}
	// What the socket and net/http add: service time over the socket
	// against the handler called directly, for the mix's commonest class.
	top := w.mix[0]
	for _, p := range w.mix {
		if p.share > top.share {
			top = p
		}
	}
	if h := lp.handlerP50[top.class]; h > 0 {
		out["selectsvc.http_overhead_us"] = 1e3*median(s.serviceByClass[top.class]) - h
	}

	if err := log.write(filepath.Join(e.root, "bench", "out", "trace_"+w.name+".json")); err != nil {
		return nil, err
	}
	res := &runResult{attempted: s.attempted + rp.oracleChecked, failed: s.failed, metrics: map[string]metricValue{}}
	for name, unit := range perLayerUnits {
		res.metrics[name] = metricValue{Value: out[name], Unit: unit}
	}
	for name := range out {
		if _, ok := perLayerUnits[name]; !ok {
			return nil, fmt.Errorf("layer pass produced unlisted metric %q", name) // a bug in this file
		}
	}
	res.invalid = validity(out["client.gen_overshoot_p99_ms"], share(s.sent, s.scheduled))
	res.failures = rp.ck.list()
	res.correct = len(res.failures) == 0
	return res, nil
}

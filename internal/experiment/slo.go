package experiment

import (
	"fmt"
	"strings"

	"nodeselect/internal/loadgen"
	"nodeselect/internal/randx"
	"nodeselect/internal/remos"
	"nodeselect/internal/selectsvc"
	"nodeselect/internal/testbed"
)

// SLOOptions parameterizes the sustained-load SLO run: an in-process
// selectd over the CMU testbed topology, hammered with 5000 plain
// /select{"m": 4} requests from 4 workers, the per-request latencies
// reduced to the percentile summary in loadgen.SLOReport.
type SLOOptions struct {
	// Seed randomizes the background load painted onto the topology.
	Seed int64
}

// The budget RunSLO gates on. The p99 budget has ~50x headroom over the
// healthy cached path, so it only trips on real regressions (a broken plan
// cache, per-request sweeps), not CI noise; p999 is left ungated because
// single GC pauses own it.
const (
	sloMaxP99Ms     = 5
	sloMaxErrorRate = 0.001
)

// RunSLO stands up an in-process placement service (static CMU-testbed
// source, plan cache and request tracing on), runs the sustained-load
// harness against its handler, and gates the report: p99 at most 5 ms and
// a 5xx rate at most 0.001.
func RunSLO(opt SLOOptions) (loadgen.SLOReport, error) {
	g := testbed.CMU()
	src := remos.NewStaticSource(g)
	rng := randx.New(opt.Seed).Split("slo")
	for _, id := range g.ComputeNodes() {
		src.SetLoad(id, 2*rng.Float64())
	}
	svc := selectsvc.New(src, selectsvc.Config{
		Collector:   remos.CollectorConfig{History: 8},
		DefaultMode: remos.Current,
		Seed:        opt.Seed,
	})
	if err := svc.Poll(); err != nil {
		return loadgen.SLOReport{}, fmt.Errorf("slo: initial poll: %w", err)
	}
	rep, err := loadgen.RunSLO(loadgen.SLOConfig{
		Handler:  svc.Handler(),
		Body:     []byte(`{"m": 4}`),
		Requests: 5000,
	})
	if err != nil {
		return rep, err
	}
	rep.Failures = rep.Check(loadgen.SLOBudget{MaxP99Ms: sloMaxP99Ms, MaxErrorRate: sloMaxErrorRate})
	rep.Pass = len(rep.Failures) == 0
	return rep, nil
}

// FormatSLO renders a report and its verdict as a human-readable block.
func FormatSLO(r loadgen.SLOReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SLO run: %s, %d requests, concurrency %d\n", r.Target, r.Requests, r.Concurrency)
	fmt.Fprintf(&b, "  throughput  %.0f req/s over %.2fs\n", r.ThroughputRPS, r.DurationSeconds)
	fmt.Fprintf(&b, "  latency ms  p50 %.3f  p90 %.3f  p99 %.3f  p999 %.3f  max %.3f\n",
		r.LatencyMs.P50, r.LatencyMs.P90, r.LatencyMs.P99, r.LatencyMs.P999, r.LatencyMs.Max)
	fmt.Fprintf(&b, "  errors      %d (rate %.4f), statuses %v\n", r.Errors, r.ErrorRate, r.StatusClasses)
	fmt.Fprintf(&b, "  budget      p99 <= %gms, 5xx rate <= %g\n", float64(sloMaxP99Ms), sloMaxErrorRate)
	if r.Pass {
		fmt.Fprintf(&b, "  PASS\n")
	} else {
		fmt.Fprintf(&b, "  FAIL: %s\n", strings.Join(r.Failures, "; "))
	}
	return b.String()
}

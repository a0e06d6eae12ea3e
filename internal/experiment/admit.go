package experiment

import (
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"nodeselect/internal/lease"
	"nodeselect/internal/loadgen"
	"nodeselect/internal/randx"
	"nodeselect/internal/remos"
	"nodeselect/internal/selectsvc"
	"nodeselect/internal/testbed"
)

// AdmitOptions parameterizes the admission A/B benchmark: the same
// sustained leased-select load against a serial-admission service and a
// batched one, both WAL-backed (the fsync is exactly what batching
// amortizes, so benchmarking without it would measure the wrong thing).
type AdmitOptions struct {
	// Seed randomizes the background load painted onto the topology.
	Seed int64
	// Requests per rep (default 1500), Reps per mode (default 5),
	// Concurrency of submitters (default 64, the acceptance point).
	Requests    int
	Reps        int
	Concurrency int
	// Window is the batched mode's collection window (default 2ms; a
	// batch also closes at 64 submissions).
	Window time.Duration
}

func (o AdmitOptions) withDefaults() AdmitOptions {
	if o.Requests <= 0 {
		o.Requests = 1500
	}
	if o.Reps <= 0 {
		o.Reps = 5
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 64
	}
	if o.Window <= 0 {
		o.Window = 2 * time.Millisecond
	}
	return o
}

// The thresholds RunAdmit gates on: batched throughput at least 3x
// serial's with Welch p below 0.005, batched p99 within 2x serial's.
const (
	admitMinSpeedup  = 3.0
	admitMaxP99Ratio = 2.0
	admitAlpha       = 0.005
)

// admitBody is the leased select every worker sends: a tiny CPU demand so
// thousands of leases fit the testbed and rejections stay out of the
// throughput picture — the benchmark measures commit cost, not placement
// contention.
const admitBody = `{"m": 4, "algo": "balanced", "demand": {"cpu": 0.0001}, "lease_ttl": 60}`

// RunAdmit runs the serial and batched modes and gates the comparison at
// the acceptance thresholds (3x throughput at Welch p < 0.005, batched
// p99 within 2x serial). Each rep gets a fresh service over a fresh
// WAL-backed ledger in its own temp directory.
func RunAdmit(opt AdmitOptions) (loadgen.AdmitReport, error) {
	opt = opt.withDefaults()

	newHandler := func(batched bool) func() (http.Handler, func(), error) {
		return func() (http.Handler, func(), error) {
			g := testbed.CMU()
			src := remos.NewStaticSource(g)
			rng := randx.New(opt.Seed).Split("admit")
			for _, id := range g.ComputeNodes() {
				src.SetLoad(id, 0.5*rng.Float64())
			}
			dir, err := os.MkdirTemp("", "admit-wal-*")
			if err != nil {
				return nil, nil, err
			}
			wal, err := lease.OpenWAL(dir)
			if err != nil {
				os.RemoveAll(dir)
				return nil, nil, err
			}
			ledger, err := lease.New(g, lease.Options{WAL: wal, MaxTTL: 10 * time.Minute})
			if err != nil {
				os.RemoveAll(dir)
				return nil, nil, err
			}
			cfg := selectsvc.Config{
				Collector:   remos.CollectorConfig{History: 8},
				DefaultMode: remos.Current,
				Seed:        opt.Seed,
				Ledger:      ledger,
			}
			cfg.Trace.Disabled = true
			if batched {
				cfg.BatchWindow = opt.Window
				cfg.BatchMax = 64
			}
			svc := selectsvc.New(src, cfg)
			if err := svc.Poll(); err != nil {
				os.RemoveAll(dir)
				return nil, nil, fmt.Errorf("admit: initial poll: %w", err)
			}
			teardown := func() {
				svc.StopBatching()
				ledger.Close()
				os.RemoveAll(dir)
			}
			return svc.Handler(), teardown, nil
		}
	}

	base := loadgen.AdmitConfig{
		Body:        []byte(admitBody),
		Requests:    opt.Requests,
		Warmup:      50,
		Concurrency: opt.Concurrency,
		Reps:        opt.Reps,
	}

	serialCfg := base
	serialCfg.NewHandler = newHandler(false)
	serial, err := loadgen.RunAdmitMode(serialCfg)
	if err != nil {
		return loadgen.AdmitReport{}, fmt.Errorf("admit: serial mode: %w", err)
	}

	batchedCfg := base
	batchedCfg.NewHandler = newHandler(true)
	batched, err := loadgen.RunAdmitMode(batchedCfg)
	if err != nil {
		return loadgen.AdmitReport{}, fmt.Errorf("admit: batched mode: %w", err)
	}

	return loadgen.GateAdmit(serial, batched, admitMinSpeedup, admitMaxP99Ratio, admitAlpha), nil
}

// FormatAdmit renders the A/B comparison and its verdict.
func FormatAdmit(r loadgen.AdmitReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Admission benchmark: %d requests/rep, %d reps, concurrency %d\n",
		r.Serial.Requests, r.Serial.Reps, r.Serial.Concurrency)
	mode := func(name string, m loadgen.AdmitModeReport) {
		fmt.Fprintf(&b, "  %-8s %8.0f selects/s  p50 %.3fms  p99 %.3fms  p999 %.3fms  err %.4f\n",
			name, m.ThroughputRPS, m.LatencyMs.P50, m.LatencyMs.P99, m.LatencyMs.P999, m.ErrorRate)
	}
	mode("serial", r.Serial)
	mode("batched", r.Batched)
	fmt.Fprintf(&b, "  speedup %.2fx (floor %.1fx, welch p %.4g at alpha %.4g), batched p99 %.2fx serial (cap %.1fx)\n",
		r.Speedup, admitMinSpeedup, r.WelchP, admitAlpha, r.P99Ratio, admitMaxP99Ratio)
	if r.Pass {
		fmt.Fprintf(&b, "  PASS\n")
	} else {
		fmt.Fprintf(&b, "  FAIL: %s\n", strings.Join(r.Failures, "; "))
	}
	return b.String()
}

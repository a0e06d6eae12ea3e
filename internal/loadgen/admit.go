package loadgen

import (
	"errors"
	"fmt"
	"math"
	"net/http"

	"nodeselect/internal/stats"
)

// This file extends the SLO harness into an A/B throughput benchmark for
// admission: the same sustained leased-select load is driven against a
// serial-admission service and a batched-admission one, repeated across
// independent reps (each on a fresh service and ledger, so one rep's
// accumulated leases cannot bleed into the next), and the per-rep
// throughput samples are compared with Welch's t-test. This is the engine
// behind `expt -run admit`.

// AdmitConfig parameterizes one admission mode's rep loop.
type AdmitConfig struct {
	// NewHandler builds a fresh service for one rep and returns its
	// handler plus a teardown (drain pipelines, close WALs). Required: a
	// shared handler would accumulate leases across reps and measure an
	// ever-heavier ledger instead of steady-state admission cost.
	NewHandler func() (http.Handler, func(), error)
	// Body is the leased select request sent with every request.
	Body []byte
	// Requests, Warmup, Concurrency mirror SLOConfig, per rep.
	Requests    int
	Warmup      int
	Concurrency int
	// Reps is how many independent runs feed the throughput sample
	// (default 5; Welch needs at least 2).
	Reps int
}

func (c AdmitConfig) withDefaults() AdmitConfig {
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 64
	}
	return c
}

// AdmitModeReport summarizes one admission mode across its reps.
type AdmitModeReport struct {
	Requests    int
	Concurrency int
	Reps        int
	// ThroughputSamples is the per-rep selects/s — the input to the Welch
	// comparison.
	ThroughputSamples []float64
	// ThroughputRPS is the mean of the samples.
	ThroughputRPS float64
	// LatencyMs averages each percentile across reps.
	LatencyMs SLOLatency
	// ErrorRate is the worst rep's rate: one bad rep must not hide in the
	// mean.
	ErrorRate float64
}

// RunAdmitMode runs one admission mode's rep loop.
func RunAdmitMode(cfg AdmitConfig) (AdmitModeReport, error) {
	cfg = cfg.withDefaults()
	if cfg.NewHandler == nil {
		return AdmitModeReport{}, errors.New("loadgen: AdmitConfig.NewHandler is required")
	}
	rep := AdmitModeReport{Concurrency: cfg.Concurrency, Reps: cfg.Reps}
	for r := 0; r < cfg.Reps; r++ {
		h, teardown, err := cfg.NewHandler()
		if err != nil {
			return AdmitModeReport{}, fmt.Errorf("loadgen: admit rep %d: %w", r, err)
		}
		slo, err := RunSLO(SLOConfig{
			Handler:     h,
			Body:        cfg.Body,
			Requests:    cfg.Requests,
			Warmup:      cfg.Warmup,
			Concurrency: cfg.Concurrency,
		})
		teardown()
		if err != nil {
			return AdmitModeReport{}, fmt.Errorf("loadgen: admit rep %d: %w", r, err)
		}
		rep.Requests = slo.Requests
		rep.ThroughputSamples = append(rep.ThroughputSamples, slo.ThroughputRPS)
		rep.LatencyMs.Mean += slo.LatencyMs.Mean
		rep.LatencyMs.P50 += slo.LatencyMs.P50
		rep.LatencyMs.P90 += slo.LatencyMs.P90
		rep.LatencyMs.P99 += slo.LatencyMs.P99
		rep.LatencyMs.P999 += slo.LatencyMs.P999
		if slo.LatencyMs.Max > rep.LatencyMs.Max {
			rep.LatencyMs.Max = slo.LatencyMs.Max
		}
		if slo.ErrorRate > rep.ErrorRate {
			rep.ErrorRate = slo.ErrorRate
		}
	}
	n := float64(cfg.Reps)
	rep.LatencyMs.Mean /= n
	rep.LatencyMs.P50 /= n
	rep.LatencyMs.P90 /= n
	rep.LatencyMs.P99 /= n
	rep.LatencyMs.P999 /= n
	var s stats.Sample
	s.AddAll(rep.ThroughputSamples...)
	rep.ThroughputRPS = s.Mean()
	return rep, nil
}

// AdmitReport is the A/B comparison and its verdict.
type AdmitReport struct {
	Serial  AdmitModeReport
	Batched AdmitModeReport
	// Speedup is batched mean throughput over serial's.
	Speedup float64
	// WelchP is the two-sided Welch t-test p-value over the throughput
	// samples.
	WelchP float64
	// P99Ratio is batched p99 latency over serial's.
	P99Ratio float64
	// Pass and Failures are GateAdmit's verdict.
	Pass     bool
	Failures []string
}

// GateAdmit compares the two modes and applies the thresholds: batched
// throughput must beat serial by minSpeedup with Welch p below alpha, and
// batched p99 latency must stay within maxP99Ratio of serial's. Fewer than
// two samples a side leave Welch's p NaN, which fails the significance
// check rather than passing an unfalsifiable test.
func GateAdmit(serial, batched AdmitModeReport, minSpeedup, maxP99Ratio, alpha float64) AdmitReport {
	r := AdmitReport{Serial: serial, Batched: batched}
	var sS, sB stats.Sample
	sS.AddAll(serial.ThroughputSamples...)
	sB.AddAll(batched.ThroughputSamples...)
	if m := sS.Mean(); m > 0 {
		r.Speedup = sB.Mean() / m
	}
	if p := serial.LatencyMs.P99; p > 0 {
		r.P99Ratio = batched.LatencyMs.P99 / p
	}
	r.WelchP = stats.WelchT(&sB, &sS).P

	if minSpeedup > 0 && r.Speedup < minSpeedup {
		r.Failures = append(r.Failures,
			fmt.Sprintf("speedup %.2fx below floor %.2fx", r.Speedup, minSpeedup))
	}
	if alpha > 0 {
		if math.IsNaN(r.WelchP) || r.WelchP >= alpha {
			r.Failures = append(r.Failures,
				fmt.Sprintf("welch p %.4g not significant at alpha %.4g", r.WelchP, alpha))
		} else if sB.Mean() <= sS.Mean() {
			r.Failures = append(r.Failures, "batched mean throughput does not exceed serial")
		}
	}
	if maxP99Ratio > 0 && r.P99Ratio > maxP99Ratio {
		r.Failures = append(r.Failures,
			fmt.Sprintf("batched p99 %.2fx serial exceeds cap %.2fx", r.P99Ratio, maxP99Ratio))
	}
	r.Pass = len(r.Failures) == 0
	return r
}

package loadgen

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"nodeselect/internal/stats"
)

// This file is the service-side counterpart of the simulation load
// generator: where Generator drives synthetic CPU load inside netsim, the
// SLO harness drives sustained HTTP load against a live (in-process)
// placement service and reduces the per-request latency samples to the
// percentile summary an SLO is written against.

// SLOConfig parameterizes one sustained-load run.
type SLOConfig struct {
	// Handler is the service under test, driven in-process — no sockets,
	// so the measured latency is the service's own cost. Required.
	Handler http.Handler
	// Method and Path address the endpoint (default POST /select).
	Method string
	Path   string
	// Body is the request body sent with every request.
	Body []byte
	// Header entries are added to every request.
	Header http.Header
	// Requests is the number of measured requests (default 2000).
	Requests int
	// Warmup requests run before measurement starts, unrecorded, so
	// one-time costs (first snapshot, cache fill) do not pollute the tail
	// (default 100; negative disables warmup).
	Warmup int
	// Concurrency is the number of parallel workers (default 4).
	Concurrency int
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Method == "" {
		c.Method = http.MethodPost
	}
	if c.Path == "" {
		c.Path = "/select"
	}
	if c.Requests <= 0 {
		c.Requests = 2000
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	} else if c.Warmup == 0 {
		c.Warmup = 100
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	return c
}

// SLOLatency is the latency summary, in milliseconds.
type SLOLatency struct {
	Mean, P50, P90, P99, P999, Max float64
}

// SLOReport is the result of a run.
type SLOReport struct {
	Target          string
	Requests        int
	Concurrency     int
	Errors          int
	ErrorRate       float64
	DurationSeconds float64
	ThroughputRPS   float64
	LatencyMs       SLOLatency
	StatusClasses   map[string]int
	// Pass and Failures are the verdict of Check against the budget of
	// whoever gates the run; RunSLO only measures.
	Pass     bool
	Failures []string
}

// RunSLO drives Concurrency workers through Requests requests against the
// handler and reduces the per-request latency samples through
// internal/stats. A request counts as an error when its status is >= 500
// (4xx is the client's fault and would mask service regressions if it
// moved the error rate).
func RunSLO(cfg SLOConfig) (SLOReport, error) {
	cfg = cfg.withDefaults()
	if cfg.Handler == nil {
		return SLOReport{}, errors.New("loadgen: SLOConfig.Handler is required")
	}

	do := func() (status int, seconds float64, err error) {
		req, err := http.NewRequest(cfg.Method, cfg.Path, bytes.NewReader(cfg.Body))
		if err != nil {
			return 0, 0, err
		}
		for k, vs := range cfg.Header {
			req.Header[k] = vs
		}
		w := &memResponse{header: make(http.Header)}
		t0 := time.Now()
		cfg.Handler.ServeHTTP(w, req)
		d := time.Since(t0)
		if w.status == 0 {
			w.status = http.StatusOK
		}
		return w.status, d.Seconds(), nil
	}

	for i := 0; i < cfg.Warmup; i++ {
		if _, _, err := do(); err != nil {
			return SLOReport{}, err
		}
	}

	// Workers keep private samples and merge after the run: stats.Sample
	// is not concurrency-safe, and a shared mutex on the hot path would
	// serialize exactly the contention the harness exists to measure.
	type workerOut struct {
		latency stats.Sample
		classes map[string]int
		errors  int
		err     error
	}
	per := cfg.Requests / cfg.Concurrency
	extra := cfg.Requests % cfg.Concurrency
	outs := make([]workerOut, cfg.Concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		n := per
		if w < extra {
			n++
		}
		wg.Add(1)
		go func(out *workerOut, n int) {
			defer wg.Done()
			out.classes = make(map[string]int)
			for i := 0; i < n; i++ {
				status, seconds, err := do()
				if err != nil {
					out.err = err
					return
				}
				out.latency.Add(seconds)
				out.classes[statusClassOf(status)]++
				if status >= 500 {
					out.errors++
				}
			}
		}(&outs[w], n)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	var all stats.Sample
	classes := make(map[string]int)
	errs := 0
	for i := range outs {
		if outs[i].err != nil {
			return SLOReport{}, outs[i].err
		}
		all.AddAll(outs[i].latency.Values()...)
		for k, v := range outs[i].classes {
			classes[k] += v
		}
		errs += outs[i].errors
	}

	const ms = 1e3
	rep := SLOReport{
		Target:          cfg.Method + " " + cfg.Path,
		Requests:        all.N(),
		Concurrency:     cfg.Concurrency,
		Errors:          errs,
		ErrorRate:       float64(errs) / float64(all.N()),
		DurationSeconds: elapsed,
		ThroughputRPS:   float64(all.N()) / elapsed,
		LatencyMs: SLOLatency{
			Mean: all.Mean() * ms,
			P50:  all.Percentile(50) * ms,
			P90:  all.Percentile(90) * ms,
			P99:  all.Percentile(99) * ms,
			P999: all.Percentile(99.9) * ms,
			Max:  all.Max() * ms,
		},
		StatusClasses: classes,
	}
	return rep, nil
}

// SLOBudget is the pass/fail gate for a report. Zero fields are not
// enforced.
type SLOBudget struct {
	// MaxP99Ms bounds the latency tail, in milliseconds.
	MaxP99Ms float64
	// MaxErrorRate bounds the fraction of requests answered >= 500.
	MaxErrorRate float64
}

// Check returns one line per enforced budget the report blows, none when
// all of them hold.
func (r SLOReport) Check(b SLOBudget) []string {
	var failures []string
	if b.MaxP99Ms > 0 && r.LatencyMs.P99 > b.MaxP99Ms {
		failures = append(failures, fmt.Sprintf("p99 %.3fms exceeds budget %.3fms", r.LatencyMs.P99, b.MaxP99Ms))
	}
	if b.MaxErrorRate > 0 && r.ErrorRate > b.MaxErrorRate {
		failures = append(failures, fmt.Sprintf("error rate %.4f exceeds budget %.4f", r.ErrorRate, b.MaxErrorRate))
	}
	return failures
}

// statusClassOf buckets a status for the report ("2xx", "5xx", ...).
func statusClassOf(status int) string {
	switch {
	case status >= 500:
		return "5xx"
	case status >= 400:
		return "4xx"
	case status >= 300:
		return "3xx"
	default:
		return "2xx"
	}
}

// memResponse is a minimal in-memory http.ResponseWriter: the harness
// cares about status and timing, not the body bytes.
type memResponse struct {
	header http.Header
	status int
}

func (m *memResponse) Header() http.Header { return m.header }

func (m *memResponse) WriteHeader(status int) {
	if m.status == 0 {
		m.status = status
	}
}

func (m *memResponse) Write(b []byte) (int, error) {
	if m.status == 0 {
		m.status = http.StatusOK
	}
	return len(b), nil
}

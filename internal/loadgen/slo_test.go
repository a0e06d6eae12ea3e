package loadgen

import (
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunSLOCountsAndPercentiles(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusOK)
	})
	rep, err := RunSLO(SLOConfig{
		Handler:     h,
		Requests:    200,
		Warmup:      10,
		Concurrency: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 210 {
		t.Errorf("handler called %d times, want 210 (200 measured + 10 warmup)", got)
	}
	if rep.Requests != 200 {
		t.Errorf("Requests = %d, want 200", rep.Requests)
	}
	if rep.Errors != 0 || rep.ErrorRate != 0 {
		t.Errorf("errors = %d rate %v, want 0", rep.Errors, rep.ErrorRate)
	}
	if rep.StatusClasses["2xx"] != 200 {
		t.Errorf("StatusClasses = %v, want 200 2xx", rep.StatusClasses)
	}
	l := rep.LatencyMs
	if !(l.P50 <= l.P90 && l.P90 <= l.P99 && l.P99 <= l.P999 && l.P999 <= l.Max) {
		t.Errorf("percentiles not monotone: %+v", l)
	}
	if l.P50 <= 0 || rep.ThroughputRPS <= 0 {
		t.Errorf("degenerate report: %+v", rep)
	}
}

func TestRunSLOErrorRate(t *testing.T) {
	var n atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Every 4th measured request fails server-side; 4xx is not an
		// "error" for SLO purposes, so throw some of those in too.
		switch n.Add(1) % 4 {
		case 0:
			w.WriteHeader(http.StatusInternalServerError)
		case 1:
			w.WriteHeader(http.StatusBadRequest)
		default:
			w.WriteHeader(http.StatusOK)
		}
	})
	rep, err := RunSLO(SLOConfig{Handler: h, Requests: 400, Warmup: -1, Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 100 {
		t.Errorf("Errors = %d, want 100 (5xx only)", rep.Errors)
	}
	if rep.ErrorRate != 0.25 {
		t.Errorf("ErrorRate = %v, want 0.25", rep.ErrorRate)
	}
	if rep.StatusClasses["4xx"] != 100 || rep.StatusClasses["5xx"] != 100 || rep.StatusClasses["2xx"] != 200 {
		t.Errorf("StatusClasses = %v", rep.StatusClasses)
	}
}

func TestRunSLOTailLatency(t *testing.T) {
	var n atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// One request in fifty stalls: p50 must stay fast while p99 shows
		// the stall — the exact separation an SLO pipeline exists to catch.
		if n.Add(1)%50 == 0 {
			time.Sleep(5 * time.Millisecond)
		}
	})
	rep, err := RunSLO(SLOConfig{Handler: h, Requests: 500, Warmup: -1, Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LatencyMs.P99 < 1 {
		t.Errorf("p99 = %.3fms, want >= 1ms from the injected stalls", rep.LatencyMs.P99)
	}
	if rep.LatencyMs.P50 > 1 {
		t.Errorf("p50 = %.3fms, want < 1ms (stalls are 2%% of traffic)", rep.LatencyMs.P50)
	}
}

func TestRunSLORequiresHandler(t *testing.T) {
	if _, err := RunSLO(SLOConfig{}); err == nil {
		t.Fatal("RunSLO without a handler did not error")
	}
}

func TestSLOReportCheck(t *testing.T) {
	rep := SLOReport{
		ErrorRate: 0.02,
		LatencyMs: SLOLatency{P99: 3.5, P999: 12},
	}
	if f := rep.Check(SLOBudget{}); f != nil {
		t.Errorf("empty budget enforced something: %v", f)
	}
	if f := rep.Check(SLOBudget{MaxP99Ms: 4, MaxErrorRate: 0.05}); f != nil {
		t.Errorf("within-budget report failed: %v", f)
	}
	f := rep.Check(SLOBudget{MaxP99Ms: 2, MaxErrorRate: 0.01})
	if len(f) != 2 {
		t.Fatalf("blown budget gave %d failures, want 2: %v", len(f), f)
	}
	for i, want := range []string{"p99", "error rate"} {
		if !strings.Contains(f[i], want) {
			t.Errorf("failure %q does not name %s", f[i], want)
		}
	}
}

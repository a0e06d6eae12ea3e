package experiment

import (
	"strings"
	"testing"
	"time"

	"nodeselect/internal/loadgen"
)

// TestRunAdmitSmoke keeps the harness wired end to end: tiny reps, both
// modes, a well-formed report. The full-size run (and its thresholds) is
// `make admit`; asserting 3x here would couple unit tests to CI machine
// speed.
func TestRunAdmitSmoke(t *testing.T) {
	r, err := RunAdmit(AdmitOptions{
		Seed:        1,
		Requests:    120,
		Reps:        2,
		Concurrency: 16,
		Window:      time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Serial.ThroughputSamples) != 2 || len(r.Batched.ThroughputSamples) != 2 {
		t.Fatalf("sample counts %d/%d, want 2/2",
			len(r.Serial.ThroughputSamples), len(r.Batched.ThroughputSamples))
	}
	for _, m := range []loadgen.AdmitModeReport{r.Serial, r.Batched} {
		if m.ThroughputRPS <= 0 || m.LatencyMs.P99 <= 0 {
			t.Fatalf("degenerate mode report: %+v", m)
		}
		if m.ErrorRate != 0 {
			t.Fatalf("admission errors under light load: %+v", m)
		}
	}
	if r.Speedup <= 0 {
		t.Fatalf("no speedup computed: %+v", r)
	}
	out := FormatAdmit(r)
	if !strings.Contains(out, "floor 3.0x") || !strings.Contains(out, "alpha 0.005") || !strings.Contains(out, "cap 2.0x") {
		t.Fatalf("report does not name the 3x / 0.005 / 2x gate:\n%s", out)
	}
}

// TestRunSLOSmoke keeps the SLO service wiring end to end: a full-size run
// against the in-process service, a well-formed report without 5xx, and a
// verdict that names the 5 ms / 0.001 budget and agrees with the numbers.
// Whether the budget holds is `make slo`'s to say, not a unit test's.
func TestRunSLOSmoke(t *testing.T) {
	r, err := RunSLO(SLOOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Requests != 5000 || r.StatusClasses["2xx"] != r.Requests {
		t.Fatalf("requests %d, statuses %v: want 5000 answered 2xx", r.Requests, r.StatusClasses)
	}
	if r.Errors != 0 || r.ErrorRate != 0 {
		t.Fatalf("%d 5xx (rate %v) from a healthy service", r.Errors, r.ErrorRate)
	}
	l := r.LatencyMs
	if !(0 < l.P50 && l.P50 <= l.P99 && l.P99 <= l.P999 && l.P999 <= l.Max) || r.ThroughputRPS <= 0 {
		t.Fatalf("malformed report: %+v", r)
	}
	if want := l.P99 <= sloMaxP99Ms; r.Pass != want || (len(r.Failures) == 0) != want {
		t.Fatalf("verdict pass=%v failures=%v disagrees with p99 %.3fms", r.Pass, r.Failures, l.P99)
	}
	out := FormatSLO(r)
	if !strings.Contains(out, "p99 <= 5ms, 5xx rate <= 0.001") {
		t.Fatalf("report does not name the 5 ms / 0.001 budget:\n%s", out)
	}
}

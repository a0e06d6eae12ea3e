package loadgen

import (
	"math"
	"net/http"
	"strings"
	"testing"
)

func modeReport(samples []float64, p99 float64) AdmitModeReport {
	var mean float64
	for _, s := range samples {
		mean += s
	}
	return AdmitModeReport{
		ThroughputSamples: samples,
		ThroughputRPS:     mean / float64(len(samples)),
		LatencyMs:         SLOLatency{P99: p99},
		Reps:              len(samples),
	}
}

func TestGateAdmitPass(t *testing.T) {
	serial := modeReport([]float64{100, 102, 98, 101, 99}, 50)
	batched := modeReport([]float64{400, 410, 390, 405, 395}, 60)
	r := GateAdmit(serial, batched, 3.0, 2.0, 0.005)
	if !r.Pass {
		t.Fatalf("clear 4x win failed the gate: %v", r.Failures)
	}
	if r.Speedup < 3.9 || r.Speedup > 4.1 {
		t.Fatalf("speedup %.2f, want ~4", r.Speedup)
	}
	if r.WelchP >= 0.005 {
		t.Fatalf("welch p %.4g, want significant", r.WelchP)
	}
	if r.P99Ratio != 60.0/50.0 {
		t.Fatalf("p99 ratio %.3f", r.P99Ratio)
	}
}

func TestGateAdmitFailures(t *testing.T) {
	serial := modeReport([]float64{100, 102, 98, 101, 99}, 50)

	// Below the speedup floor.
	slow := modeReport([]float64{200, 205, 195, 198, 202}, 50)
	if r := GateAdmit(serial, slow, 3.0, 2.0, 0.005); r.Pass || !hasFailure(r, "speedup") {
		t.Fatalf("2x accepted at a 3x floor: %+v", r)
	}

	// Statistically indistinguishable: huge variance swamps the mean gap.
	noisy := modeReport([]float64{50, 900, 100, 700, 60}, 50)
	if r := GateAdmit(serial, noisy, 3.0, 2.0, 0.005); r.Pass || !hasFailure(r, "welch") {
		t.Fatalf("noisy samples passed significance: %+v", r)
	}

	// Tail blowup: fast but p99 over the cap.
	spiky := modeReport([]float64{400, 410, 390, 405, 395}, 150)
	if r := GateAdmit(serial, spiky, 3.0, 2.0, 0.005); r.Pass || !hasFailure(r, "p99") {
		t.Fatalf("3x p99 blowup passed a 2x cap: %+v", r)
	}

	// Too few samples for the t-test at all: Welch's p is NaN, and a NaN p
	// must fail significance on either side, not read as a pass.
	thin := modeReport([]float64{400}, 50)
	if r := GateAdmit(serial, thin, 3.0, 2.0, 0.005); r.Pass || !math.IsNaN(r.WelchP) || !hasFailure(r, "welch") {
		t.Fatalf("single-sample batched mode passed or dodged the t-test: %+v", r)
	}
	if r := GateAdmit(modeReport([]float64{100}, 50), modeReport([]float64{400, 410}, 50), 3.0, 2.0, 0.005); r.Pass || !hasFailure(r, "welch") {
		t.Fatalf("single-sample serial mode passed or dodged the t-test: %+v", r)
	}
}

func hasFailure(r AdmitReport, substr string) bool {
	for _, f := range r.Failures {
		if strings.Contains(f, substr) {
			return true
		}
	}
	return false
}

func TestRunAdmitModeFreshHandlerPerRep(t *testing.T) {
	builds, tears := 0, 0
	cfg := AdmitConfig{
		NewHandler: func() (http.Handler, func(), error) {
			builds++
			return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.WriteHeader(http.StatusOK)
			}), func() { tears++ }, nil
		},
		Requests:    40,
		Warmup:      1,
		Concurrency: 4,
		Reps:        3,
	}
	rep, err := RunAdmitMode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 3 || tears != 3 {
		t.Fatalf("handler built %d / torn down %d times, want 3/3", builds, tears)
	}
	if len(rep.ThroughputSamples) != 3 || rep.ThroughputRPS <= 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.ErrorRate != 0 {
		t.Fatalf("error rate %v from an all-200 handler", rep.ErrorRate)
	}
}

func TestRunAdmitModeRequiresHandler(t *testing.T) {
	if _, err := RunAdmitMode(AdmitConfig{}); err == nil {
		t.Fatal("nil NewHandler accepted")
	}
}

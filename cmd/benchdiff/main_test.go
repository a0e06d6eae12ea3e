package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"nodeselect/internal/loadgen"
)

func writeJSON(t *testing.T, name string, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func hierReportFixture() loadgen.HierReport {
	return loadgen.HierReport{
		Equivalence: loadgen.HierEquivalence{Topologies: 4, Cases: 28, Exact: 28, QuotientShare: 0.7, QualityRatio: 1},
	}
}

func TestHierGate(t *testing.T) {
	if code := hierGate(writeJSON(t, "hier.json", hierReportFixture()), 0.95); code != 0 {
		t.Fatalf("passing report gated with exit %d", code)
	}

	diverged := hierReportFixture()
	diverged.Equivalence.Exact--
	if code := hierGate(writeJSON(t, "div.json", diverged), 0.95); code != 1 {
		t.Fatalf("equivalence divergence gated with exit %d, want 1", code)
	}

	worse := hierReportFixture()
	worse.Equivalence.QualityRatio = 0.9
	if code := hierGate(writeJSON(t, "worse.json", worse), 0.95); code != 1 {
		t.Fatalf("sub-floor quality gated with exit %d, want 1", code)
	}

	empty := hierReportFixture()
	empty.Equivalence = loadgen.HierEquivalence{QualityRatio: 1}
	if code := hierGate(writeJSON(t, "empty.json", empty), 0.95); code != 1 {
		t.Fatalf("a suite that ran nothing gated with exit %d, want 1", code)
	}

	if code := hierGate(filepath.Join(t.TempDir(), "missing.json"), 0.95); code != 2 {
		t.Fatal("missing file must exit 2")
	}
}

func TestAdmitGateDegenerateSamples(t *testing.T) {
	rep := loadgen.AdmitReport{
		Serial:  loadgen.AdmitModeReport{ThroughputSamples: []float64{100}},
		Batched: loadgen.AdmitModeReport{ThroughputSamples: []float64{400, 410}},
	}
	if code := admitGate(writeJSON(t, "admit.json", rep), 3, 2, 0.005); code != 2 {
		t.Fatal("single-sample admit report must exit 2, not produce a verdict")
	}
}

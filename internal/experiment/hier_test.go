package experiment

import (
	"testing"

	"nodeselect/internal/randx"
	"nodeselect/internal/testbed"
	"nodeselect/internal/topology"
)

// TestHierEquivalenceSuite runs the randomized suite: it must run every
// topology, every comparison must be exact, and the quotient path must
// actually engage on a meaningful share of it (a suite the fallback answers
// entirely would prove nothing about the collapse). This is the gate
// `make hier` runs under the race detector.
func TestHierEquivalenceSuite(t *testing.T) {
	eq := runHierEquivalence(7)
	t.Logf("%d/%d exact over %d topologies, quotient share %.2f, quality ratio %.4f",
		eq.exact, eq.cases, eq.topologies, eq.quotientShare, eq.qualityRatio)
	if eq.topologies != hierEquivTopologies || eq.cases == 0 {
		t.Fatalf("equivalence suite ran %d topologies, %d comparisons", eq.topologies, eq.cases)
	}
	if eq.exact != eq.cases {
		t.Fatalf("equivalence suite: %d of %d comparisons diverged", eq.cases-eq.exact, eq.cases)
	}
	if eq.quotientShare < 0.5 {
		t.Fatalf("quotient share %.2f: the suite barely exercises the collapse", eq.quotientShare)
	}
	if eq.qualityRatio != 1 {
		t.Fatalf("quality ratio %.6f with exact equivalence, want exactly 1", eq.qualityRatio)
	}
}

// TestPaintConditionsDeterministic pins that identically seeded painting
// produces identical snapshots — the property that makes every rerun of
// the suite reproducible.
func TestPaintConditionsDeterministic(t *testing.T) {
	paint := func() *topology.Snapshot {
		g := testbed.MultiCluster(3, 5, testbed.Ethernet100, 1e9)
		snap := topology.NewSnapshot(g)
		paintConditions(g, snap, randx.New(42).Split("p"), 2)
		return snap
	}
	a, b := paint(), paint()
	for i := range a.LoadAvg {
		if a.LoadAvg[i] != b.LoadAvg[i] {
			t.Fatalf("node %d load diverged: %v vs %v", i, a.LoadAvg[i], b.LoadAvg[i])
		}
	}
	for i := range a.AvailBW {
		if a.AvailBW[i] != b.AvailBW[i] {
			t.Fatalf("link %d availbw diverged: %v vs %v", i, a.AvailBW[i], b.AvailBW[i])
		}
	}
}

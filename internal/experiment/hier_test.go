package experiment

import (
	"testing"

	"nodeselect/internal/randx"
	"nodeselect/internal/testbed"
	"nodeselect/internal/topology"
)

// TestHierEquivalenceSuite runs the randomized suite: every comparison must
// be exact and the quotient path must actually engage on a meaningful
// share of it (a suite the fallback answers entirely would prove nothing
// about the collapse).
func TestHierEquivalenceSuite(t *testing.T) {
	eq := runHierEquivalence(HierOptions{Seed: 7}.withDefaults())
	if eq.Exact != eq.Cases || eq.Cases == 0 {
		t.Fatalf("equivalence suite: %d/%d exact", eq.Exact, eq.Cases)
	}
	if eq.QuotientShare < 0.5 {
		t.Fatalf("quotient share %.2f: the suite barely exercises the collapse", eq.QuotientShare)
	}
	if eq.QualityRatio != 1 {
		t.Fatalf("quality ratio %.6f with exact equivalence, want exactly 1", eq.QualityRatio)
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

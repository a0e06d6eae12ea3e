package remos

import (
	"errors"
	"math"
	"slices"
	"testing"

	"nodeselect/internal/randx"
	"nodeselect/internal/testbed"
	"nodeselect/internal/topology"
)

// flakySource mimics agent.NetSource's degraded behavior over a
// StaticSource: a failed entity keeps serving the value cached at failure
// time (loads stay at last-good, link counters freeze) and the
// FreshnessReporter interface flags it.
type flakySource struct {
	*StaticSource
	nodeOK, linkOK []bool
	cachedLoad     []float64
	cachedBits     []float64
}

func newFlakySource(g *topology.Graph) *flakySource {
	return &flakySource{
		StaticSource: NewStaticSource(g),
		nodeOK:       allTrue(g.NumNodes()),
		linkOK:       allTrue(g.NumLinks()),
		cachedLoad:   make([]float64, g.NumNodes()),
		cachedBits:   make([]float64, g.NumLinks()),
	}
}

func allTrue(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}

func (f *flakySource) failNode(n int) {
	f.cachedLoad[n] = f.StaticSource.NodeLoad(n, false)
	f.nodeOK[n] = false
}

func (f *flakySource) failLink(l int) {
	f.cachedBits[l] = f.StaticSource.LinkBits(l, false)
	f.linkOK[l] = false
}

func (f *flakySource) repair() {
	f.nodeOK = allTrue(len(f.nodeOK))
	f.linkOK = allTrue(len(f.linkOK))
}

func (f *flakySource) NodeOK(n int) bool { return f.nodeOK[n] }
func (f *flakySource) LinkOK(l int) bool { return f.linkOK[l] }

func (f *flakySource) NodeLoad(n int, bg bool) float64 {
	if !f.nodeOK[n] {
		return f.cachedLoad[n]
	}
	return f.StaticSource.NodeLoad(n, bg)
}

func (f *flakySource) LinkBits(l int, bg bool) float64 {
	if !f.linkOK[l] {
		return f.cachedBits[l] // frozen counter
	}
	return f.StaticSource.LinkBits(l, bg)
}

func healthGraph() *topology.Graph {
	g := topology.NewGraph()
	a := g.AddComputeNode("a")
	b := g.AddComputeNode("b")
	g.Connect(a, b, 100e6, topology.LinkOpts{})
	return g
}

// TestHealthTransitions walks the collector through ok -> degraded ->
// stale -> repaired and checks the Health summary and the ErrStale gate at
// each step.
func TestHealthTransitions(t *testing.T) {
	g := healthGraph()
	src := newFlakySource(g)
	b := g.MustNode("b")
	src.SetLoad(b, 2)
	c := NewCollector(src, CollectorConfig{Period: 1, History: 8, MaxStaleAge: 2.5})

	if h := c.Health(); h.State != HealthStale {
		t.Fatalf("unpolled health = %q, want stale", h.State)
	}
	c.Poll()
	if h := c.Health(); h.State != HealthOK || h.FreshFraction != 1 {
		t.Fatalf("healthy poll health = %+v", h)
	}

	// One node and the link fail: degraded, last-good load still served.
	src.failNode(b)
	src.failLink(0)
	src.Advance(1)
	c.Poll()
	h := c.Health()
	if h.State != HealthDegraded || h.DegradedNodes != 1 || h.FreshNodes != 1 || h.DegradedLinks != 1 {
		t.Fatalf("degraded health = %+v", h)
	}
	if h.MaxAgeSeconds != 1 {
		t.Fatalf("max age = %v, want 1", h.MaxAgeSeconds)
	}
	snap, err := c.Snapshot(Current, false)
	if err != nil {
		t.Fatalf("degraded snapshot: %v", err)
	}
	if snap.LoadAvg[b] != 2 {
		t.Fatalf("stale node load = %v, want cached 2", snap.LoadAvg[b])
	}

	// Age the failures past the ceiling: the entity turns stale, but the
	// other node is live so queries still answer.
	for i := 0; i < 2; i++ {
		src.Advance(1)
		c.Poll()
	}
	h = c.Health()
	if h.State != HealthDegraded || h.StaleNodes != 1 || h.StaleLinks != 1 {
		t.Fatalf("aged health = %+v", h)
	}
	if _, err := c.Snapshot(Current, false); err != nil {
		t.Fatalf("one live node should still answer: %v", err)
	}
	fr := c.Freshness()
	if fr.NodeAge[b] != 3 || fr.NodeAge[g.MustNode("a")] != 0 {
		t.Fatalf("node ages = %v", fr.NodeAge)
	}

	// All compute nodes stale: queries must fail typed, not lie.
	src.failNode(g.MustNode("a"))
	for i := 0; i < 3; i++ {
		src.Advance(1)
		c.Poll()
	}
	if h := c.Health(); h.State != HealthStale {
		t.Fatalf("all-stale health = %+v", h)
	}
	_, err = c.Snapshot(Current, false)
	if !errors.Is(err, ErrStale) {
		t.Fatalf("all-stale snapshot err = %v, want ErrStale", err)
	}
	var se *StaleError
	if !errors.As(err, &se) || se.MaxAge != 2.5 || se.AgeSeconds <= se.MaxAge {
		t.Fatalf("stale error detail = %+v", se)
	}

	// Repair: one live poll restores full health.
	src.repair()
	src.Advance(1)
	c.Poll()
	if h := c.Health(); h.State != HealthOK || h.MaxAgeSeconds != 0 {
		t.Fatalf("repaired health = %+v", h)
	}
	if _, err := c.Snapshot(Current, false); err != nil {
		t.Fatalf("repaired snapshot: %v", err)
	}
}

// TestStaleLinkCarryForward checks the frozen-counter fix: a link whose
// agent dies must keep its last-known-good utilization in every query
// mode, not drift toward "idle" because its cumulative counter stopped.
func TestStaleLinkCarryForward(t *testing.T) {
	g := healthGraph()
	src := newFlakySource(g)
	src.SetUsedBW(0, 40e6)
	c := NewCollector(src, CollectorConfig{Period: 1, History: 8})

	// Two live polls establish the 40 Mb/s rate.
	c.Poll()
	src.Advance(1)
	c.Poll()

	src.failLink(0)
	for i := 0; i < 3; i++ {
		src.Advance(1)
		c.Poll()
	}
	for _, mode := range []Mode{Current, Window, Forecast, Trend} {
		snap, err := c.Snapshot(mode, false)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		avail := snap.AvailBW[0]
		if avail < 55e6 || avail > 65e6 {
			t.Errorf("%v: stale-link avail = %.0f, want ~60e6 (carried rate)", mode, avail)
		}
	}

	// Recovery: live counters resume; the rate interval spanning the
	// outage must not corrupt the estimate.
	src.repair()
	// The static source's real counter kept growing during the outage (as
	// a live device's would), so the first post-repair reading jumps ahead
	// of the synthesized history by roughly nothing — the carried rate was
	// exact. Two polls re-establish a live-to-live interval.
	src.Advance(1)
	c.Poll()
	src.Advance(1)
	c.Poll()
	snap, err := c.Snapshot(Current, false)
	if err != nil {
		t.Fatal(err)
	}
	if avail := snap.AvailBW[0]; avail < 55e6 || avail > 65e6 {
		t.Errorf("post-repair avail = %.0f, want ~60e6", avail)
	}
}

// TestNoFreshnessReporterIsAlwaysFresh: plain sources (simulation, static)
// must behave exactly as before the degradation machinery.
func TestNoFreshnessReporterIsAlwaysFresh(t *testing.T) {
	g := healthGraph()
	src := NewStaticSource(g)
	c := NewCollector(src, CollectorConfig{Period: 1, History: 4, MaxStaleAge: 1})
	for i := 0; i < 5; i++ {
		c.Poll()
		src.Advance(1)
	}
	if h := c.Health(); h.State != HealthOK || h.FreshFraction != 1 {
		t.Fatalf("static source health = %+v", h)
	}
	if _, err := c.Snapshot(Window, false); err != nil {
		t.Fatal(err)
	}
}

// TestStoredHealthEqualsRecomputed pins the per-poll contract: Health and
// Freshness are computed when a poll changes their inputs and stored, so
// after every poll of a seeded schedule — nodes and links failing,
// recovering and ageing past MaxStaleAge — the stored values equal a
// recomputation from the collector's bookkeeping, field for field and
// entry for entry; reads between polls return the same arrays; and a poll
// publishes new arrays instead of rewriting the ones an in-flight reader
// still holds.
func TestStoredHealthEqualsRecomputed(t *testing.T) {
	g := testbed.MultiCluster(3, 4, testbed.Ethernet100, 1e9)
	src := newFlakySource(g)
	c := NewCollector(src, CollectorConfig{Period: 1, History: 8, MaxStaleAge: 4})
	if h := c.Health(); h.State != HealthStale || h != (Health{State: HealthStale}) {
		t.Fatalf("unpolled health = %+v, want bare stale", h)
	}
	if f := c.Freshness(); len(f.NodeAge) != g.NumNodes() || len(f.LinkAge) != g.NumLinks() {
		t.Fatalf("unpolled freshness sized %d/%d", len(f.NodeAge), len(f.LinkAge))
	}

	rng := randx.New(23)
	compute := g.ComputeNodes()
	seen := map[string]bool{}
	for poll := 0; poll < 60; poll++ {
		// Fail and repair a few entities.
		for k := 0; k < 3; k++ {
			n, l := compute[rng.Intn(len(compute))], rng.Intn(g.NumLinks())
			if rng.Intn(2) == 0 {
				src.failNode(n)
				src.failLink(l)
			} else {
				src.nodeOK[n], src.linkOK[l] = true, true
			}
		}
		if poll == 40 {
			src.repair()
		}
		held := c.Freshness()
		heldCopy := Freshness{slices.Clone(held.NodeAge), slices.Clone(held.LinkAge)}
		src.Advance(1)
		c.Poll()

		got, fresh := c.Health(), c.Freshness()
		want := c.freshnessNow()
		if !slices.Equal(fresh.NodeAge, want.NodeAge) || !slices.Equal(fresh.LinkAge, want.LinkAge) {
			t.Fatalf("poll %d: stored ages differ from recomputed:\nnodes %v\n want %v\nlinks %v\n want %v",
				poll, fresh.NodeAge, want.NodeAge, fresh.LinkAge, want.LinkAge)
		}
		if wantH := c.healthOf(want); got != wantH {
			t.Fatalf("poll %d: stored health %+v, recomputed %+v", poll, got, wantH)
		}
		// The summary agrees with the arrays it was built from.
		stale, maxAge := 0, math.Max(slices.Max(fresh.NodeAge), slices.Max(fresh.LinkAge))
		for _, id := range compute {
			if fresh.NodeAge[id] > 4 {
				stale++
			}
		}
		if got.StaleNodes != stale || got.MaxAgeSeconds != maxAge {
			t.Fatalf("poll %d: health %+v against %d stale nodes, max age %v in the arrays", poll, got, stale, maxAge)
		}
		seen[got.State] = true
		if stale > 0 {
			seen["a stale node"] = true
		}

		again := c.Freshness()
		if &again.NodeAge[0] != &fresh.NodeAge[0] || &again.LinkAge[0] != &fresh.LinkAge[0] || c.Health() != got {
			t.Fatalf("poll %d: two reads between polls returned different values", poll)
		}
		if &held.NodeAge[0] == &fresh.NodeAge[0] || &held.LinkAge[0] == &fresh.LinkAge[0] {
			t.Fatalf("poll %d: the poll reused the arrays of the epoch before it", poll)
		}
		if !slices.Equal(held.NodeAge, heldCopy.NodeAge) || !slices.Equal(held.LinkAge, heldCopy.LinkAge) {
			t.Fatalf("poll %d: the poll rewrote the arrays of the epoch before it", poll)
		}
	}
	if !seen[HealthOK] || !seen[HealthDegraded] || !seen["a stale node"] {
		t.Fatalf("schedule visited %v: want ok, degraded and a node past the ceiling", seen)
	}
}

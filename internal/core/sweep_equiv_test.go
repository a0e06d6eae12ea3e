package core_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	. "nodeselect/internal/core"
	"nodeselect/internal/hierarchy"
	"nodeselect/internal/randx"
	"nodeselect/internal/testbed"
	"nodeselect/internal/topology"
)

// randomCyclicSnapshot builds a random connected static-route topology with
// cycles: a random tree over compute nodes and switches, plus extra chords,
// with heterogeneous node speeds, link capacities, latencies, loads and
// available bandwidths. The static route table (minimum hop, deterministic
// tie-break) is what the sweep and its oracle both score against.
func randomCyclicSnapshot(src *randx.Source, n int) *topology.Snapshot {
	g := topology.NewGraph()
	for i := 0; i < n; i++ {
		if src.Intn(4) == 0 {
			g.AddNetworkNode("s" + NodeName(i))
		} else {
			speed := 0.5 + src.Float64()*1.5
			g.AddComputeNodeSpec(NodeName(i), speed, "")
		}
	}
	caps := []float64{10e6, 100e6, 1e9}
	for i := 1; i < n; i++ {
		c := caps[src.Intn(len(caps))]
		g.Connect(src.Intn(i), i, c, topology.LinkOpts{Latency: src.Float64() * 1e-3})
	}
	extra := src.Intn(n/2 + 1)
	for e := 0; e < extra; e++ {
		a, b := src.Intn(n), src.Intn(n)
		if a == b {
			continue
		}
		c := caps[src.Intn(len(caps))]
		g.Connect(a, b, c, topology.LinkOpts{Latency: src.Float64() * 1e-3})
	}
	s := topology.NewSnapshot(g)
	for i := 0; i < n; i++ {
		s.SetLoad(i, src.Float64()*4)
	}
	for l := 0; l < g.NumLinks(); l++ {
		s.SetAvailBW(l, src.Float64()*g.Link(l).Capacity)
	}
	return s
}

// quantizeBandwidth collapses link bandwidths onto a small grid so that
// metric ties — several links removed in one sweep round, components whose
// scores collide — are common rather than measure-zero events.
func quantizeBandwidth(s *topology.Snapshot, levels int) {
	g := s.Graph
	for l := 0; l < g.NumLinks(); l++ {
		step := g.Link(l).Capacity / float64(levels)
		q := float64(int(s.AvailBW[l]/step)) * step
		s.SetAvailBW(l, q)
	}
}

// equivRequest derives a request variant from the case index, cycling
// through floors, priorities, pinning, heterogeneous reference capacity,
// latency ceilings and eligibility restrictions.
func equivRequest(src *randx.Source, s *topology.Snapshot, variant int) Request {
	nc := s.Graph.NumComputeNodes()
	m := 1
	if nc > 1 {
		m = 1 + src.Intn(nc)
	}
	req := Request{M: m}
	switch variant % 8 {
	case 1:
		req.MinBW = src.Float64() * 100e6
	case 2:
		req.MinCPU = src.Float64()
	case 3:
		req.ComputePriority = 0.5 + src.Float64()*3.5
	case 4:
		req.RefCapacity = 100e6
	case 5:
		comp := s.Graph.ComputeNodes()
		if len(comp) > 0 {
			req.Pinned = []int{comp[src.Intn(len(comp))]}
			if len(comp) > 1 && src.Intn(2) == 0 {
				req.Pinned = append(req.Pinned, comp[src.Intn(len(comp))])
			}
		}
	case 6:
		req.MaxPairLatency = src.Float64() * 5e-3
	case 7:
		cut := src.Intn(s.Graph.NumNodes()) + 1
		req.Eligible = func(node int) bool { return node%cut != 0 || node == 0 }
		req.MinBW = src.Float64() * 50e6
	}
	return req
}

// collectTrace runs fn with an observer installed and returns the steps.
func collectTrace(fn func(Options) (Result, error), base Options) ([]SweepStep, Result, error) {
	var steps []SweepStep
	base.Observer = func(st SweepStep) { steps = append(steps, st) }
	res, err := fn(base)
	return steps, res, err
}

// ungrouped is the sweep every core entry point runs.
func ungrouped(s *topology.Snapshot, req Request, opts Options, balanced bool) (Result, error) {
	return Sweep(s, req, opts, balanced, nil)
}

// groupedArms run the same sweep with a grouping: the trivial one (every
// node a vertex of its own, reached through the grouping's index) and the
// one hierarchy.Build derives, through the entry point services use.
var groupedArms = []struct {
	name string
	run  func(*topology.Snapshot, Request, Options, bool) (Result, error)
}{
	{"trivial grouping", func(s *topology.Snapshot, req Request, opts Options, balanced bool) (Result, error) {
		return Sweep(s, req, opts, balanced, NewGrouping(s.Graph, nil))
	}},
	{"hierarchy.Build's grouping", func(s *topology.Snapshot, req Request, opts Options, balanced bool) (Result, error) {
		algo := AlgoBandwidth
		if balanced {
			algo = AlgoBalanced
		}
		res, _, err := hierarchy.Select(algo, s, hierarchy.Build(s), req, nil, opts)
		return res, err
	}},
}

// assertSame fails the test unless one arm's outcome is the oracle's: node
// sets, every Result field, error class and message.
func assertSame(t *testing.T, tag string, res Result, err error, refRes Result, refErr error) {
	t.Helper()
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: error divergence: sweep=%v ref=%v", tag, err, refErr)
	}
	if err != nil {
		for _, class := range []error{ErrBadRequest, ErrTooFewNodes, ErrNoFeasibleSet} {
			if errors.Is(err, class) != errors.Is(refErr, class) {
				t.Fatalf("%s: error class divergence: sweep=%v ref=%v", tag, err, refErr)
			}
		}
		if err.Error() != refErr.Error() {
			t.Fatalf("%s: error message divergence:\nsweep: %v\nref:   %v", tag, err, refErr)
		}
		return
	}
	if !reflect.DeepEqual(res, refRes) {
		t.Fatalf("%s: result divergence:\nsweep: %+v\nref:   %+v", tag, res, refRes)
	}
}

// assertEquivalent runs the sweep — ungrouped and under every grouping —
// and the literal edge-deletion loop on one case and fails the test on any
// divergence: node sets, every Result field, error class and message, and
// — ungrouped, on a sampled subset — the full observer trace.
func assertEquivalent(t *testing.T, s *topology.Snapshot, req Request, balanced bool, withTrace bool, tag string) {
	t.Helper()
	refRes, refErr := ReferenceSweepSelect(s, req, Options{}, balanced)
	res, err := ungrouped(s, req, Options{}, balanced)
	assertSame(t, tag, res, err, refRes, refErr)
	for _, arm := range groupedArms {
		gres, gerr := arm.run(s, req, Options{}, balanced)
		assertSame(t, tag+", "+arm.name, gres, gerr, refRes, refErr)
	}
	if err != nil || !withTrace {
		return
	}

	steps, res2, err2 := collectTrace(func(o Options) (Result, error) {
		return ungrouped(s, req, o, balanced)
	}, Options{})
	refSteps, _, _ := collectTrace(func(o Options) (Result, error) {
		return ReferenceSweepSelect(s, req, o, balanced)
	}, Options{})
	if err2 != nil || !reflect.DeepEqual(res2, res) {
		t.Fatalf("%s: observer changed the result: %+v vs %+v (err %v)", tag, res2, res, err2)
	}
	if len(steps) != len(refSteps) {
		t.Fatalf("%s: trace length divergence: sweep=%d ref=%d", tag, len(steps), len(refSteps))
	}
	for i := range steps {
		if !reflect.DeepEqual(steps[i], refSteps[i]) {
			t.Fatalf("%s: trace step %d divergence:\nsweep: %+v\nref:   %+v", tag, i, steps[i], refSteps[i])
		}
	}
	// A grouping is set aside for a traced request, never half-applied.
	for _, arm := range groupedArms {
		gsteps, _, _ := collectTrace(func(o Options) (Result, error) { return arm.run(s, req, o, balanced) }, Options{})
		if !reflect.DeepEqual(gsteps, refSteps) {
			t.Fatalf("%s, %s: trace diverges from the reference's", tag, arm.name)
		}
	}
}

// TestFastPathEquivalence is the differential harness of the union-find
// sweep: across well over 1000 random tree and cyclic static-route
// snapshots and the full spread of request shapes (floors, priorities,
// pinned nodes, heterogeneous reference capacity and node speeds, latency
// ceilings, eligibility restrictions), the sweep — ungrouped, trivially
// grouped and grouped by hierarchy.Build — must return exactly the
// reference oracle's node sets, scores, and error classes — and, on a
// sampled subset, a bit-identical decision trace.
func TestFastPathEquivalence(t *testing.T) {
	root := randx.New(0xfa57)
	const cases = 1200
	for i := 0; i < cases; i++ {
		src := root.Split(fmt.Sprintf("equiv-%d", i))
		n := 4 + src.Intn(21)
		var s *topology.Snapshot
		kind := "tree"
		if i%2 == 0 {
			s = RandomTreeSnapshot(src, n)
		} else {
			kind = "cyclic"
			s = randomCyclicSnapshot(src, n)
		}
		if i%3 == 0 {
			quantizeBandwidth(s, 1+src.Intn(4))
		}
		req := equivRequest(src, s, i)
		balanced := i%2 == 1
		withTrace := i%5 == 0
		tag := fmt.Sprintf("case %d (%s n=%d m=%d balanced=%v)", i, kind, n, req.M, balanced)
		assertEquivalent(t, s, req, balanced, withTrace, tag)
	}
}

// TestTwoTierEquivalence runs the same harness where grouping has
// something to merge: clusters of interchangeable leaves under a switch
// backbone, with every request shape — those that run grouped and those
// that set the grouping aside.
func TestTwoTierEquivalence(t *testing.T) {
	shapes := []struct{ nSwitch, nClusters, leavesPer int }{
		{3, 2, 4}, {6, 4, 6}, {10, 8, 10}, {5, 3, 30},
	}
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	for si, shape := range shapes {
		for seed := 0; seed < seeds; seed++ {
			src := randx.New(int64(1000*si + seed))
			s := testbed.RandomTwoTier(src, shape.nSwitch, shape.nClusters, shape.leavesPer)
			if hierarchy.Build(s).Clusters() == 0 {
				t.Fatalf("shape %d seed %d: no clusters formed", si, seed)
			}
			for variant := 0; variant < 8; variant++ {
				req := equivRequest(src, s, variant)
				if variant%2 == 0 {
					req.M = min(req.M, 2+src.Intn(8)) // small m keeps most requests feasible
				}
				for _, balanced := range []bool{false, true} {
					tag := fmt.Sprintf("shape %d seed %d variant %d (m=%d balanced=%v)", si, seed, variant, req.M, balanced)
					assertEquivalent(t, s, req, balanced, variant < 2, tag)
				}
			}
		}
	}
}

// TestFastPathEquivalenceTinyAndDegenerate pins the boundary shapes the
// random sweep may miss: single node, no usable links, every-link-tied,
// all-pinned requests, and an m equal to the full compute population.
func TestFastPathEquivalenceTinyAndDegenerate(t *testing.T) {
	src := randx.New(7)

	single := topology.NewGraph()
	single.AddComputeNode("n00")
	sSingle := topology.NewSnapshot(single)

	flat := Chain(6)
	sFlat := topology.NewSnapshot(flat) // all availbw equal: one giant tier

	floor := RandomTreeSnapshot(src, 12)
	comp := floor.Graph.ComputeNodes()

	cases := []struct {
		name     string
		s        *topology.Snapshot
		req      Request
		balanced bool
	}{
		{"single-m1", sSingle, Request{M: 1}, false},
		{"single-m2", sSingle, Request{M: 2}, false},
		{"flat-ties", sFlat, Request{M: 3}, false},
		{"flat-ties-balanced", sFlat, Request{M: 3}, true},
		{"all-nodes", sFlat, Request{M: 6}, false},
		{"floor-kills-everything", floor, Request{M: 2, MinBW: 1e12}, false},
		{"all-pinned", sFlat, Request{M: 3, Pinned: []int{0, 2, 4}}, true},
		{"pinned-m-equal", floor, Request{M: 2, Pinned: []int{comp[0], comp[1]}}, false},
	}
	for _, c := range cases {
		assertEquivalent(t, c.s, c.req, c.balanced, true, c.name)
	}
}

// TestSweepDeterminism asserts the sweep, under every grouping, and its
// oracle return identical results and traces across repeated runs
// on a tie-heavy snapshot — the shape under which any dependence on Go's
// randomized map iteration order would surface.
func TestSweepDeterminism(t *testing.T) {
	src := randx.New(0xD373)
	s := RandomTreeSnapshot(src, 40)
	quantizeBandwidth(s, 2) // heavy metric ties
	// Heavy CPU ties as well: two load classes only.
	for i := 0; i < s.Graph.NumNodes(); i++ {
		s.SetLoad(i, float64(i%2))
	}
	req := Request{M: 10, Pinned: []int{3, 17}}

	type outcome struct {
		res   Result
		err   string
		steps []SweepStep
	}
	run := func(impl func(*topology.Snapshot, Request, Options, bool) (Result, error), balanced bool) outcome {
		var o outcome
		opts := Options{Observer: func(st SweepStep) { o.steps = append(o.steps, st) }}
		res, err := impl(s, req, opts, balanced)
		o.res = res
		if err != nil {
			o.err = err.Error()
		}
		return o
	}
	impls := append(groupedArms[:len(groupedArms):len(groupedArms)], []struct {
		name string
		run  func(*topology.Snapshot, Request, Options, bool) (Result, error)
	}{{"ungrouped", ungrouped}, {"reference", ReferenceSweepSelect}}...)
	for _, impl := range impls {
		for _, balanced := range []bool{false, true} {
			first := run(impl.run, balanced)
			for rep := 1; rep < 20; rep++ {
				again := run(impl.run, balanced)
				if !reflect.DeepEqual(first, again) {
					t.Fatalf("%s balanced=%v: run %d diverged from run 0:\nfirst: %+v\nagain: %+v",
						impl.name, balanced, rep, first, again)
				}
			}
		}
	}
}

// FuzzSweepEquivalence decodes arbitrary bytes into a snapshot and request
// and checks that the union-find sweep, under every grouping, and the
// reference edge-deletion loop agree exactly: same result or same error.
func FuzzSweepEquivalence(f *testing.F) {
	f.Add([]byte{8, 1, 2, 3, 4, 5, 6, 7, 0, 3, 10, 20, 30, 40, 50, 60, 70})
	f.Add([]byte{4, 0, 0, 0, 200, 1, 255, 255, 255})
	f.Add([]byte{12, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 64, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 2 + int(data[0])%14
		rest := data[1:]
		at := func(i int) byte {
			if len(rest) == 0 {
				return 0
			}
			return rest[i%len(rest)]
		}
		g := topology.NewGraph()
		for i := 0; i < n; i++ {
			if at(i)%5 == 4 {
				g.AddNetworkNode("s" + NodeName(i))
			} else {
				g.AddComputeNodeSpec(NodeName(i), 0.25+float64(at(n+i)%8)/4, "")
			}
		}
		for i := 1; i < n; i++ {
			g.Connect(int(at(2*n+i))%i, i, 100e6, topology.LinkOpts{})
		}
		// Optional chords make it cyclic.
		for e := 0; e < int(at(3*n))%4; e++ {
			a, b := int(at(3*n+e))%n, int(at(3*n+e+7))%n
			if a != b {
				g.Connect(a, b, 100e6, topology.LinkOpts{})
			}
		}
		s := topology.NewSnapshot(g)
		for i := 0; i < n; i++ {
			s.SetLoad(i, float64(at(4*n+i)%16)/4)
		}
		for l := 0; l < g.NumLinks(); l++ {
			s.SetAvailBW(l, float64(at(5*n+l)%11)*10e6)
		}
		req := Request{M: 1 + int(at(6*n))%n}
		if at(6*n+1)%3 == 1 {
			req.MinBW = float64(at(6*n+2)%11) * 10e6
		}
		if at(6*n+3)%3 == 1 {
			req.ComputePriority = 0.5 + float64(at(6*n+4)%8)/2
		}
		balanced := at(6*n+5)%2 == 1

		assertEquivalent(t, s, req, balanced, false, "fuzz case")
	})
}

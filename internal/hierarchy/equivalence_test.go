package hierarchy

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"nodeselect/internal/core"
	"nodeselect/internal/randx"
	"nodeselect/internal/testbed"
	"nodeselect/internal/topology"
)

// hierRequest derives a request in the quotient path's gated class,
// cycling constraint shapes like core's equivalence suite does.
func hierRequest(src *randx.Source, s *topology.Snapshot, variant int) core.Request {
	nc := s.Graph.NumComputeNodes()
	m := 2
	if nc > 2 {
		m = 2 + src.Intn(nc-1)
	}
	req := core.Request{M: m}
	switch variant % 7 {
	case 1:
		req.MinBW = src.Float64() * 200e6
	case 2:
		req.MinCPU = src.Float64()
	case 3:
		req.ComputePriority = 0.5 + src.Float64()*3.5
		req.RefCapacity = 100e6
	case 4:
		req.MinMemoryMB = float64(256 * (1 + src.Intn(8)))
	case 5:
		cut := src.Intn(s.Graph.NumNodes()) + 1
		req.Eligible = func(node int) bool { return node%cut != 0 || node == 0 }
	case 6:
		req.MinBW = src.Float64() * 100e6
		req.MinCPU = src.Float64() * 0.5
	}
	return req
}

// assertHierEquivalent requires the request to run grouped and to agree
// with the ungrouped sweep bit for bit: every Result field, error class and
// error message.
func assertHierEquivalent(t *testing.T, algo string, s *topology.Snapshot, p *Partition, req core.Request, tag string) {
	t.Helper()
	hres, path, herr := Select(algo, s, p, req, nil, core.Options{})
	cres, cerr := core.SelectOpt(algo, s, req, nil, core.Options{})
	if path != PathQuotient {
		t.Fatalf("%s: path = %q, want quotient", tag, path)
	}
	if (herr == nil) != (cerr == nil) {
		t.Fatalf("%s: error divergence: hier=%v flat=%v", tag, herr, cerr)
	}
	if herr != nil {
		for _, class := range []error{core.ErrBadRequest, core.ErrTooFewNodes, core.ErrNoFeasibleSet} {
			if errors.Is(herr, class) != errors.Is(cerr, class) {
				t.Fatalf("%s: error class divergence: hier=%v flat=%v", tag, herr, cerr)
			}
		}
		if herr.Error() != cerr.Error() {
			t.Fatalf("%s: error message divergence:\nhier: %v\nflat: %v", tag, herr, cerr)
		}
		return
	}
	if !reflect.DeepEqual(hres, cres) {
		t.Fatalf("%s: result divergence:\nhier: %+v\nflat: %+v", tag, hres, cres)
	}
}

// TestQuotientEquivalence is the exact-equivalence wall of DESIGN.md §15:
// on every topology where a request runs grouped, hierarchical selection
// returns exactly what the ungrouped sweep returns — node sets, every score
// field, bottleneck identity, and error text.
func TestQuotientEquivalence(t *testing.T) {
	shapes := []struct{ nSwitch, nClusters, leavesPer int }{
		{3, 2, 4},
		{6, 4, 6},
		{10, 8, 10},
		{5, 3, 30},
	}
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	for si, shape := range shapes {
		for seed := 0; seed < seeds; seed++ {
			src := randx.New(int64(1000*si + seed))
			s := testbed.RandomTwoTier(src, shape.nSwitch, shape.nClusters, shape.leavesPer)
			p := Build(s)
			if p.Clusters() == 0 {
				t.Fatalf("shape %d seed %d: no clusters formed", si, seed)
			}
			for variant := 0; variant < 7; variant++ {
				req := hierRequest(src, s, variant)
				for _, algo := range []string{core.AlgoBandwidth, core.AlgoBalanced} {
					tag := fmt.Sprintf("shape %d seed %d variant %d algo %s", si, seed, variant, algo)
					assertHierEquivalent(t, algo, s, p, req, tag)
				}
			}
		}
	}
}

// TestQuotientErrorEquivalence pins the two structured failure modes to
// the flat path's exact wording.
func TestQuotientErrorEquivalence(t *testing.T) {
	src := randx.New(7)
	s := testbed.RandomTwoTier(src, 4, 3, 5)
	p := Build(s)

	// Too few eligible nodes: a CPU floor no node clears.
	req := core.Request{M: 2, MinCPU: 99}
	_, path, err := Select(core.AlgoBalanced, s, p, req, nil, core.Options{})
	if path != PathQuotient || !errors.Is(err, core.ErrTooFewNodes) {
		t.Fatalf("CPU floor: path=%q err=%v", path, err)
	}
	_, cerr := core.SelectOpt(core.AlgoBalanced, s, req, nil, core.Options{})
	if err.Error() != cerr.Error() {
		t.Fatalf("too-few message divergence:\nhier: %v\nflat: %v", err, cerr)
	}

	// No feasible set: a bandwidth floor no link clears leaves only
	// singleton components.
	req = core.Request{M: 2, MinBW: 1e12}
	_, path, err = Select(core.AlgoBandwidth, s, p, req, nil, core.Options{})
	if path != PathQuotient || !errors.Is(err, core.ErrNoFeasibleSet) {
		t.Fatalf("BW floor: path=%q err=%v", path, err)
	}
	_, cerr = core.SelectOpt(core.AlgoBandwidth, s, req, nil, core.Options{})
	if err.Error() != cerr.Error() {
		t.Fatalf("no-feasible message divergence:\nhier: %v\nflat: %v", err, cerr)
	}
}

// TestFallbackGates drives every exit of quotientApplies and checks the
// fallback answer matches core exactly.
func TestFallbackGates(t *testing.T) {
	src := randx.New(11)
	s := testbed.RandomTwoTier(src, 4, 3, 5)
	p := Build(s)
	comp := s.Graph.ComputeNodes()

	cases := []struct {
		name string
		algo string
		p    *Partition
		req  core.Request
		opts core.Options
	}{
		{name: "nil partition", algo: core.AlgoBalanced, p: nil, req: core.Request{M: 2}},
		{name: "foreign graph", algo: core.AlgoBalanced, p: Build(testbed.RandomTwoTier(randx.New(12), 3, 2, 4)), req: core.Request{M: 2}},
		{name: "compute algo", algo: core.AlgoCompute, p: p, req: core.Request{M: 2}},
		{name: "static algo", algo: core.AlgoStatic, p: p, req: core.Request{M: 2}},
		{name: "M=1", algo: core.AlgoBandwidth, p: p, req: core.Request{M: 1}},
		{name: "pinned", algo: core.AlgoBalanced, p: p, req: core.Request{M: 2, Pinned: []int{comp[0]}}},
		{name: "latency ceiling", algo: core.AlgoBalanced, p: p, req: core.Request{M: 2, MaxPairLatency: 5e-3}},
		{name: "observer", algo: core.AlgoBalanced, p: p, req: core.Request{M: 2},
			opts: core.Options{Observer: func(core.SweepStep) {}}},
		{name: "paper early stop", algo: core.AlgoBalanced, p: p, req: core.Request{M: 2},
			opts: core.Options{PaperEarlyStop: true}},
		{name: "paper single edge", algo: core.AlgoBandwidth, p: p, req: core.Request{M: 2},
			opts: core.Options{PaperSingleEdgeRemoval: true}},
	}
	for _, tc := range cases {
		hres, path, herr := Select(tc.algo, s, tc.p, tc.req, nil, tc.opts)
		if path != PathFallback {
			t.Fatalf("%s: path = %q, want fallback", tc.name, path)
		}
		cres, cerr := core.SelectOpt(tc.algo, s, tc.req, nil, tc.opts)
		if (herr == nil) != (cerr == nil) || (herr != nil && herr.Error() != cerr.Error()) {
			t.Fatalf("%s: error divergence: hier=%v flat=%v", tc.name, herr, cerr)
		}
		if herr == nil && !reflect.DeepEqual(hres, cres) {
			t.Fatalf("%s: result divergence:\nhier: %+v\nflat: %+v", tc.name, hres, cres)
		}
	}

	// A partition with nothing collapsed also falls back.
	g := topology.NewGraph()
	a := g.AddComputeNode("a")
	b := g.AddComputeNode("b")
	sw := g.AddNetworkNode("sw")
	g.Connect(a, sw, 100e6, topology.LinkOpts{})
	g.Connect(b, sw, 10e6, topology.LinkOpts{}) // differing capacity: no bundle
	flat := topology.NewSnapshot(g)
	fp := Build(flat)
	if fp.Clusters() != 0 {
		t.Fatalf("expected no clusters, got %d", fp.Clusters())
	}
	if _, path, _ := Select(core.AlgoBalanced, flat, fp, core.Request{M: 2}, nil, core.Options{}); path != PathFallback {
		t.Fatalf("uncollapsed partition: path = %q, want fallback", path)
	}
}

// TestSelectCtx smoke-tests the traced wrapper on both paths.
func TestSelectCtx(t *testing.T) {
	src := randx.New(3)
	s := testbed.RandomTwoTier(src, 4, 3, 5)
	p := Build(s)
	ctx := context.Background()
	res, path, err := SelectCtx(ctx, core.AlgoBalanced, s, p, core.Request{M: 2}, nil, core.Options{})
	if err != nil || path != PathQuotient || len(res.Nodes) != 2 {
		t.Fatalf("SelectCtx quotient: res=%+v path=%q err=%v", res, path, err)
	}
	if _, path, err = SelectCtx(ctx, core.AlgoBalanced, s, p, core.Request{M: 1}, nil, core.Options{}); err != nil || path != PathFallback {
		t.Fatalf("SelectCtx fallback: path=%q err=%v", path, err)
	}
	// Error propagation through the span wrapper.
	if _, _, err = SelectCtx(ctx, core.AlgoBalanced, s, p, core.Request{M: 2, MinCPU: 99}, nil, core.Options{}); !errors.Is(err, core.ErrTooFewNodes) {
		t.Fatalf("SelectCtx error: %v", err)
	}
}

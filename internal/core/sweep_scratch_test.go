package core_test

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	. "nodeselect/internal/core"
	"nodeselect/internal/hierarchy"
	"nodeselect/internal/randx"
	"nodeselect/internal/testbed"
	"nodeselect/internal/topology"
)

// sweepFn is Sweep, on the pool or bound to one scratch.
type sweepFn func(*topology.Snapshot, Request, Options, bool, *Grouping) (Result, error)

// reuseWorld is one snapshot of the scratch-reuse stream with the groupings
// requests on it may run under.
type reuseWorld struct {
	s       *topology.Snapshot
	trivial *Grouping
	part    *hierarchy.Partition
}

// reuseCase is one request of the stream with the literal loop's answer
// and, when it is observed, trace.
type reuseCase struct {
	tag      string
	w        reuseWorld
	arm      int // 0 ungrouped, 1 trivial grouping, 2 hierarchy.Build's grouping
	req      Request
	balanced bool
	observe  bool

	want  Result
	err   error
	steps []SweepStep
}

// outcome is what one run hands its caller.
type outcome struct {
	res   Result
	err   error
	steps []SweepStep
}

// clone copies an outcome down to the last slice, for comparing what a
// caller holds with what it was given.
func (o outcome) clone() outcome {
	c := outcome{res: o.res, err: o.err}
	c.res.Nodes = slices.Clone(o.res.Nodes)
	for _, st := range o.steps {
		st.RemovedLinks = slices.Clone(st.RemovedLinks)
		st.Candidates = slices.Clone(st.Candidates)
		for i := range st.Candidates {
			st.Candidates[i].Nodes = slices.Clone(st.Candidates[i].Nodes)
		}
		c.steps = append(c.steps, st)
	}
	return c
}

// run answers the case with sweep (arm 2 always goes through
// hierarchy.Select, hence the pool).
func (c reuseCase) run(sweep sweepFn) outcome {
	var o outcome
	var opts Options
	if c.observe {
		opts.Observer = func(st SweepStep) { o.steps = append(o.steps, st) }
	}
	switch c.arm {
	case 0:
		o.res, o.err = sweep(c.w.s, c.req, opts, c.balanced, nil)
	case 1:
		o.res, o.err = sweep(c.w.s, c.req, opts, c.balanced, c.w.trivial)
	default:
		algo := AlgoBandwidth
		if c.balanced {
			algo = AlgoBalanced
		}
		o.res, _, o.err = hierarchy.Select(algo, c.w.s, c.w.part, c.req, nil, opts)
	}
	return o
}

func (c reuseCase) check(o outcome) error {
	if (o.err == nil) != (c.err == nil) || (o.err != nil && o.err.Error() != c.err.Error()) {
		return fmt.Errorf("%s: error divergence: sweep=%v ref=%v", c.tag, o.err, c.err)
	}
	if o.err == nil && !reflect.DeepEqual(o.res, c.want) {
		return fmt.Errorf("%s: result divergence:\nsweep: %+v\nref:   %+v", c.tag, o.res, c.want)
	}
	if c.observe && !reflect.DeepEqual(o.steps, c.steps) {
		return fmt.Errorf("%s: trace diverges from the reference's (%d steps vs %d)", c.tag, len(o.steps), len(c.steps))
	}
	return nil
}

// scribble overwrites every node set the outcome holds — the result's and
// each recorded candidate's — through to the end of its backing array.
func (o outcome) scribble() {
	fill := func(nodes []int) {
		nodes = nodes[:cap(nodes)]
		for i := range nodes {
			nodes[i] = -7
		}
	}
	fill(o.res.Nodes)
	for _, st := range o.steps {
		for _, cand := range st.Candidates {
			fill(cand.Nodes)
		}
	}
}

// runStream answers the cases in order and holds each answer to the
// oracle's; after every request it also checks that the previous one's
// result and trace — which an audit ring or plan cache would still hold —
// have not changed under it, and that they share no backing array with this
// one's: a sentinel written through every node set of the previous answer
// must not show up in the new one.
func runStream(cases []reuseCase, order func(i int) int, sweep sweepFn) error {
	var prev, prevCopy outcome
	for i := range cases {
		c := cases[order(i)]
		o := c.run(sweep)
		if err := c.check(o); err != nil {
			return err
		}
		if !reflect.DeepEqual(prev, prevCopy) {
			return fmt.Errorf("%s: the previous request's result or trace changed while this one ran", c.tag)
		}
		prev.scribble()
		if err := c.check(o); err != nil {
			return fmt.Errorf("%s: shares a node set with the previous request's answer: %w", c.tag, err)
		}
		prev, prevCopy = o, o.clone()
	}
	return nil
}

// reuseStream builds n mixed requests over snapshots of different sizes and
// every class the scratch serves: m 1–64 (often more than a topology has:
// infeasible), both objectives, every eligibility constraint on and off,
// pins, latency ceilings, the observer, and all three groupings.
func reuseStream(n int) []reuseCase {
	shapes := []struct{ nSwitch, nClusters, leavesPer int }{
		{10, 8, 30}, {3, 2, 4}, {6, 4, 10}, {5, 3, 30},
	}
	worlds := make([]reuseWorld, len(shapes))
	for i, sh := range shapes {
		s := testbed.RandomTwoTier(randx.New(int64(7000+i)), sh.nSwitch, sh.nClusters, sh.leavesPer)
		worlds[i] = reuseWorld{s, NewGrouping(s.Graph, nil), hierarchy.Build(s)}
	}
	src := randx.New(99)
	cases := make([]reuseCase, n)
	for i := range cases {
		w := worlds[src.Intn(len(worlds))]
		req := Request{M: 2 + src.Intn(63)}
		if src.Intn(3) == 0 {
			req.M = 2 + src.Intn(7) // keep a good share feasible on the small shapes
		}
		if src.Intn(3) == 0 {
			req.MinCPU = src.Float64() * 0.6
		}
		if src.Intn(3) == 0 {
			req.MinBW = src.Float64() * 150e6
		}
		if src.Intn(3) == 0 {
			req.MinMemoryMB = float64(256 * (1 + src.Intn(8)))
		}
		if src.Intn(3) == 0 {
			cut := 2 + src.Intn(5)
			req.Eligible = func(node int) bool { return node%cut != 0 }
		}
		if src.Intn(4) == 0 {
			req.ComputePriority, req.RefCapacity = 0.5+src.Float64()*3, 100e6
		}
		class := "simple"
		switch src.Intn(8) {
		case 0:
			class, req.M = "m=1", 1
		case 1:
			class = "pinned"
			comp := w.s.Graph.ComputeNodes()
			req.M = 2 + src.Intn(7)
			req.Pinned = []int{comp[src.Intn(len(comp))], comp[src.Intn(len(comp))]}
		case 2:
			class, req.MaxPairLatency = "latency", 1e-3+src.Float64()*3e-3
			req.M = 2 + src.Intn(7)
		}
		c := reuseCase{w: w, arm: src.Intn(3), req: req, balanced: i%2 == 1, observe: src.Intn(3) == 0}
		c.tag = fmt.Sprintf("request %d (%s, m=%d, balanced=%v, arm %d, observed=%v)", i, class, req.M, c.balanced, c.arm, c.observe)
		var opts Options
		if c.observe {
			opts.Observer = func(st SweepStep) { c.steps = append(c.steps, st) }
		}
		c.want, c.err = ReferenceSweepSelect(w.s, req, opts, c.balanced)
		cases[i] = c
	}
	return cases
}

// TestScratchReuseCannotLeak drives mixed requests — grouped and ungrouped,
// observed or not, with pins, latency ceilings and M = 1 among them —
// through one scratch in sequence, then through the shared pool from 8
// goroutines (run under -race), and holds every answer and trace to the
// literal loop's, so state left behind by one request can never show up in
// the next; and nothing a request handed out may change afterwards.
func TestScratchReuseCannotLeak(t *testing.T) {
	cases := reuseStream(320)
	feasible := 0
	for _, c := range cases {
		if c.err == nil {
			feasible++
		}
	}
	if feasible < len(cases)/4 || feasible > len(cases)*9/10 {
		t.Fatalf("%d of %d requests feasible: the stream should mix both", feasible, len(cases))
	}
	if err := runStream(cases, func(i int) int { return i }, NewScratchSweep()); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			order := func(i int) int { return (i*7 + w*41) % len(cases) } // each worker its own order
			if err := runStream(cases, order, Sweep); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
}

// TestScratchReuseExplicitCases runs the orders most likely to expose a
// stale buffer on one scratch: a larger m after a smaller one (top buffers
// too short), fewer vertices after more (stale cells and owned buffers past
// the new end), a request that returns early, an observed request after a
// plain one, the member-gathering classes after the merging one, and back.
func TestScratchReuseExplicitCases(t *testing.T) {
	big := testbed.RandomTwoTier(randx.New(1), 10, 8, 30)
	small := testbed.RandomTwoTier(randx.New(2), 3, 2, 4)
	worlds := map[*topology.Snapshot]reuseWorld{
		big:   {s: big, trivial: NewGrouping(big.Graph, nil)},
		small: {s: small, trivial: NewGrouping(small.Graph, nil)},
	}
	pin := small.Graph.ComputeNodes()[:2]
	steps := []struct {
		s       *topology.Snapshot
		req     Request
		observe bool
	}{
		{big, Request{M: 2}, false},
		{big, Request{M: 48}, false},                     // larger m after smaller
		{small, Request{M: 3}, true},                     // fewer vertices after more, observed
		{small, Request{M: 3, MinCPU: 99}, false},        // too few eligible: early return
		{big, Request{M: 64, MinCPU: 0.1}, false},        // larger everything again, filtered members
		{big, Request{M: 5, MinBW: 1e12}, true},          // no feasible set, observed
		{small, Request{M: 3, Pinned: pin}, true},        // gathers members
		{big, Request{M: 1}, false},                      // singletons
		{big, Request{M: 4, MaxPairLatency: 2e-3}, true}, // several pools per component
		{small, Request{M: 2}, false},
	}
	sweep := NewScratchSweep()
	var cases []reuseCase
	for i, st := range steps {
		for arm := 0; arm < 2; arm++ {
			for _, balanced := range []bool{false, true} {
				c := reuseCase{w: worlds[st.s], arm: arm, req: st.req, balanced: balanced, observe: st.observe}
				c.tag = fmt.Sprintf("step %d (arm %d, balanced=%v)", i, arm, balanced)
				var opts Options
				if c.observe {
					opts.Observer = func(s SweepStep) { c.steps = append(c.steps, s) }
				}
				c.want, c.err = ReferenceSweepSelect(st.s, st.req, opts, balanced)
				cases = append(cases, c)
			}
		}
	}
	if err := runStream(cases, func(i int) int { return i }, sweep); err != nil {
		t.Fatal(err)
	}
}

// flat200 is the benchmark's flat200_sweep / flat200_admit input: the
// 211-node multicluster under the benchmark's load.
func flat200() *topology.Snapshot {
	return testbed.BenchSnapshot(testbed.MultiCluster(10, 20, testbed.Ethernet100, testbed.Ethernet100))
}

// TestFlatSelectAllocs is TestQuotientSelectAllocs' ungrouped twin: a
// warmed, unobserved select on the benchmark's 211-node input stays under
// 100 allocations (1 measured, the winner's node set; a Result and a key
// string per scored set make ~30, a sweep that rebuilds its working set per
// request ~700).
func TestFlatSelectAllocs(t *testing.T) {
	s := flat200()
	if got := s.Graph.NumNodes(); got != 211 {
		t.Fatalf("input drifted from the benchmark's: %d nodes", got)
	}
	i := 0
	run := func() {
		algo := []string{AlgoBalanced, AlgoBandwidth}[i%2]
		req := Request{M: 4 + (i*5)%13} // the workload's m 4–16
		i++
		if _, err := SelectOpt(algo, s, req, nil, Options{}); err != nil {
			t.Fatalf("select %d: %v", i, err)
		}
	}
	run() // warm the scratch and the graph's route table
	if avg := testing.AllocsPerRun(40, run); avg > 100 {
		t.Fatalf("warmed ungrouped select: %.0f allocations per run, want ≤ 100", avg)
	}
}

// TestScratchSurvivesGC: a working set grown by one select is still there
// for the next after the heap has been collected, whichever goroutine asks.
// On the benchmark's 10 101-node input a grouped select after two
// collections, from a goroutine that never swept, stays under 300
// allocations and 64 KB (1 and 0.5 measured); regrowing the scratch allocates
// ≈ 3.5 MB, which a sync.Pool charged to whoever came after a collection.
func TestScratchSurvivesGC(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10k-node topology")
	}
	s := testbed.BenchSnapshot(testbed.MultiCluster(100, 100, testbed.Ethernet100, 1e9))
	p := hierarchy.Build(s)
	sel := func() {
		if _, path, err := hierarchy.Select(AlgoBalanced, s, p, Request{M: 64}, nil, Options{}); err != nil || path != hierarchy.PathQuotient {
			t.Errorf("select: path=%q err=%v", path, err)
		}
	}
	sel() // routes, and a scratch grown to this graph and m
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.ReadMemStats(&before)
		sel()
		runtime.ReadMemStats(&after)
	}()
	<-done
	if n, kb := after.Mallocs-before.Mallocs, float64(after.TotalAlloc-before.TotalAlloc)/1024; n > 300 || kb >= 64 {
		t.Fatalf("select after two collections: %d allocations, %.0f KB; want ≤ 300 and < 64 KB", n, kb)
	}
}

// TestScratchListBound: however many sweeps run at once, the free list
// keeps at most GOMAXPROCS working sets afterwards. The sweeps are held
// inside their enumeration until every one of them has taken a scratch, so
// 4×GOMAXPROCS are out at the same time.
func TestScratchListBound(t *testing.T) {
	s := testbed.RandomTwoTier(randx.New(5), 4, 3, 6)
	limit := runtime.GOMAXPROCS(0)
	var inside, done sync.WaitGroup
	inside.Add(4 * limit)
	for i := 0; i < 4*limit; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			var once sync.Once
			req := Request{M: 2, Eligible: func(int) bool {
				once.Do(func() { inside.Done(); inside.Wait() })
				return true
			}}
			if _, err := Sweep(s, req, Options{}, true, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	done.Wait()
	if got := ParkedScratches(); got > limit {
		t.Fatalf("%d working sets parked after %d concurrent sweeps, want ≤ GOMAXPROCS = %d", got, 4*limit, limit)
	}
	if ParkedScratches() == 0 {
		t.Fatal("no working set parked after a sweep")
	}
}

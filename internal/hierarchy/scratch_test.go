package hierarchy

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"nodeselect/internal/core"
	"nodeselect/internal/randx"
	"nodeselect/internal/testbed"
	"nodeselect/internal/topology"
)

// reuseCase is one request of the scratch-reuse stream with the ungrouped
// sweep's answer to it.
type reuseCase struct {
	tag  string
	algo string
	s    *topology.Snapshot
	p    *Partition
	req  core.Request
	want core.Result
	err  error
}

func (c reuseCase) check(res core.Result, err error) error {
	if (err == nil) != (c.err == nil) || (err != nil && err.Error() != c.err.Error()) {
		return fmt.Errorf("%s: error divergence: grouped=%v ungrouped=%v", c.tag, err, c.err)
	}
	if err == nil && !reflect.DeepEqual(res, c.want) {
		return fmt.Errorf("%s: result divergence:\ngrouped:   %+v\nungrouped: %+v", c.tag, res, c.want)
	}
	return nil
}

// reuseStream builds n mixed requests over partitions of different sizes:
// m 2–64 (often more than a topology has: infeasible), both objectives,
// and every eligibility constraint on and off, alone and combined.
func reuseStream(n int) []reuseCase {
	shapes := []struct{ nSwitch, nClusters, leavesPer int }{
		{10, 8, 30}, {3, 2, 4}, {6, 4, 10}, {5, 3, 30},
	}
	type world struct {
		s *topology.Snapshot
		p *Partition
	}
	worlds := make([]world, len(shapes))
	for i, sh := range shapes {
		s := testbed.RandomTwoTier(randx.New(int64(7000+i)), sh.nSwitch, sh.nClusters, sh.leavesPer)
		worlds[i] = world{s, Build(s)}
	}
	src := randx.New(99)
	cases := make([]reuseCase, n)
	for i := range cases {
		w := worlds[src.Intn(len(worlds))]
		req := core.Request{M: 2 + src.Intn(63)}
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
		algo := []string{core.AlgoBandwidth, core.AlgoBalanced}[i%2]
		c := reuseCase{tag: fmt.Sprintf("request %d (%s, m=%d)", i, algo, req.M), algo: algo, s: w.s, p: w.p, req: req}
		c.want, c.err = core.SelectOpt(algo, w.s, req, nil, core.Options{})
		cases[i] = c
	}
	return cases
}

// TestScratchReuseCannotLeak drives mixed requests over shared partitions
// through core's scratch pool — in sequence, then from 8 goroutines (run
// under -race) — and holds every grouped answer to the ungrouped one, so
// state left behind by one request can never show up in the next. core's
// test of the same name covers the other request classes against the
// literal oracle.
func TestScratchReuseCannotLeak(t *testing.T) {
	cases := reuseStream(320)
	feasible := 0
	for _, c := range cases {
		if c.err == nil {
			feasible++
		}
		res, path, err := Select(c.algo, c.s, c.p, c.req, nil, core.Options{})
		if path != PathQuotient {
			t.Fatalf("%s: path = %q, want quotient", c.tag, path)
		}
		if e := c.check(res, err); e != nil {
			t.Fatal(e)
		}
	}
	if feasible < len(cases)/4 || feasible > len(cases)*9/10 {
		t.Fatalf("%d of %d requests feasible: the stream should mix both", feasible, len(cases))
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range cases {
				c := cases[(i*7+w*41)%len(cases)] // each worker its own order
				res, _, err := Select(c.algo, c.s, c.p, c.req, nil, core.Options{})
				if e := c.check(res, err); e != nil {
					t.Error(e)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestScratchReuseExplicitCases runs, back to back on one goroutine (so in
// practice on one pooled scratch; core's test of the same name pins the
// scratch), the orders most likely to expose a stale buffer: a larger m
// after a smaller one (top buffers too short), a smaller partition after a
// larger one (stale vertices and owned buffers past the new end), and back.
func TestScratchReuseExplicitCases(t *testing.T) {
	big := testbed.RandomTwoTier(randx.New(1), 10, 8, 30)
	small := testbed.RandomTwoTier(randx.New(2), 3, 2, 4)
	pBig, pSmall := Build(big), Build(small)
	steps := []struct {
		s   *topology.Snapshot
		p   *Partition
		req core.Request
	}{
		{big, pBig, core.Request{M: 2}},
		{big, pBig, core.Request{M: 48}},                // larger m after smaller
		{small, pSmall, core.Request{M: 3}},             // smaller partition after larger
		{small, pSmall, core.Request{M: 3, MinCPU: 99}}, // too few eligible: early return
		{big, pBig, core.Request{M: 64, MinCPU: 0.1}},   // larger everything again, filtered members
		{big, pBig, core.Request{M: 5, MinBW: 1e12}},    // no feasible set
		{small, pSmall, core.Request{M: 2}},
	}
	for i, st := range steps {
		for _, algo := range []string{core.AlgoBandwidth, core.AlgoBalanced} {
			c := reuseCase{tag: fmt.Sprintf("step %d %s", i, algo)}
			c.want, c.err = core.SelectOpt(algo, st.s, st.req, nil, core.Options{})
			res, path, err := Select(algo, st.s, st.p, st.req, nil, core.Options{})
			if path != PathQuotient {
				t.Fatalf("%s: path = %q, want quotient", c.tag, path)
			}
			if e := c.check(res, err); e != nil {
				t.Fatal(e)
			}
		}
	}
}

// tiered10k is the benchmark's tiered10k_hier input: the 10101-node
// tiered:100x100 fabric under the benchmark's load.
func tiered10k() *topology.Snapshot {
	return testbed.BenchSnapshot(testbed.MultiCluster(100, 100, testbed.Ethernet100, 1e9))
}

// tiered10kRequest cycles the workload's request shapes: m 8–64, both
// objectives.
func tiered10kRequest(i int) (string, core.Request) {
	algo := []string{core.AlgoBalanced, core.AlgoBandwidth}[i%2]
	return algo, core.Request{M: 8 + (i*13)%57}
}

// TestQuotientSelectAllocs guards the scratch reuse: a warmed quotient
// select on the 10k-node input stays under 300 allocations (~6 measured: the
// winner's node set and the request's closures; a Result and a key string
// per scored set make ~470, a select that rebuilds its working set ~19 000).
func TestQuotientSelectAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10k-node topology")
	}
	s := tiered10k()
	p := Build(s)
	if got := s.Graph.NumNodes(); got != 10101 || p.Clusters() != 100 {
		t.Fatalf("input drifted from the benchmark's: %d nodes, %d clusters", got, p.Clusters())
	}
	i := 0
	run := func() {
		algo, req := tiered10kRequest(i)
		i++
		if _, path, err := Select(algo, s, p, req, nil, core.Options{}); err != nil || path != PathQuotient {
			t.Fatalf("select %d: path=%q err=%v", i, path, err)
		}
	}
	run() // warm the scratch and the graph's route table
	if avg := testing.AllocsPerRun(40, run); avg > 300 {
		t.Fatalf("warmed quotient select: %.0f allocations per run, want ≤ 300", avg)
	}
}

func BenchmarkPartitionBuild10k(b *testing.B) {
	s := tiered10k()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := Build(s); p.Clusters() != 100 {
			b.Fatalf("clusters = %d", p.Clusters())
		}
	}
}

func BenchmarkQuotientSelect10k(b *testing.B) {
	s := tiered10k()
	p := Build(s)
	s.Graph.Routes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo, req := tiered10kRequest(i)
		if _, _, err := Select(algo, s, p, req, nil, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

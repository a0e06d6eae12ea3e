package selectsvc

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"nodeselect/internal/remos"
	"nodeselect/internal/testbed"
)

// faultySource is a static source whose entities fail on the test's
// schedule (remos.FreshnessReporter). Only the polling goroutine touches it.
type faultySource struct {
	*remos.StaticSource
	nodeDown, linkDown []bool
}

func (f *faultySource) NodeOK(n int) bool { return !f.nodeDown[n] }
func (f *faultySource) LinkOK(l int) bool { return !f.linkDown[l] }

// epochView is what every select answered from one poll epoch must declare,
// worked out from the fault schedule alone.
type epochView struct {
	degraded bool
	dataAge  float64
	stale    []string // compute nodes past the ceiling, sorted by name
}

// TestConcurrentSelectsKeepTheirEpoch is the shared-means-read-only wall for
// per-poll freshness: 8 goroutines of plain, pinned, leased and spec selects
// (with and without -exclude-stale) run against a degraded fleet while polls
// move the epoch under them. Every response must declare exactly the
// degraded / data_age_seconds / stale_nodes of the epoch its measured_at
// names — recomputed here from the fault schedule, not read back from the
// collector — and the age arrays a poll published must still checksum the
// same after later polls have replaced them. Run under -race, which is what
// catches a poll rewriting an array an in-flight select still reads.
func TestConcurrentSelectsKeepTheirEpoch(t *testing.T) {
	for _, exclude := range []bool{false, true} {
		t.Run(fmt.Sprintf("exclude_stale=%v", exclude), func(t *testing.T) { concurrentEpochs(t, exclude) })
	}
}

func concurrentEpochs(t *testing.T, excludeStale bool) {
	const maxStale = 2.5
	g := testbed.CMU()
	src := &faultySource{remos.NewStaticSource(g), make([]bool, g.NumNodes()), make([]bool, g.NumLinks())}
	svc := New(src, Config{
		Collector:    remos.CollectorConfig{Period: 1, History: 8, MaxStaleAge: maxStale},
		DefaultMode:  remos.Current,
		Seed:         1,
		ExcludeStale: excludeStale,
	})
	h := svc.Handler()

	// The schedule: m-5 goes down for good at poll 3, m-9 flaps four polls
	// down and three up, m-12's access link two down and three up.
	gone, flappy := g.MustNode("m-5"), g.MustNode("m-9")
	link := g.Incident(g.MustNode("m-12"))[0]
	nodeSince := make([]int, g.NumNodes())
	linkSince := make([]int, g.NumLinks())

	var mu sync.Mutex // guards views, answered, stamps
	views := map[float64]epochView{}
	answered := map[float64]bool{} // measured_at of every answered request
	type stamp struct {
		fresh remos.Freshness
		sum   float64
	}
	var stamps []stamp
	checksum := func(f remos.Freshness) float64 {
		sum := 0.0
		for i, age := range f.NodeAge {
			sum += float64(i+1) * age
		}
		for l, age := range f.LinkAge {
			sum += float64(l+1) * 1e3 * age
		}
		return sum
	}
	poll := func(k int) {
		src.nodeDown[gone] = k >= 3
		src.nodeDown[flappy] = k%7 >= 3
		src.linkDown[link] = k%5 >= 3
		src.Advance(1)
		var v epochView
		for id, down := range src.nodeDown {
			if nodeSince[id]++; !down {
				nodeSince[id] = 0
			}
			age := float64(nodeSince[id])
			v.degraded = v.degraded || down
			v.dataAge = math.Max(v.dataAge, age)
			if age > maxStale {
				v.stale = append(v.stale, g.Node(id).Name)
			}
		}
		for l, down := range src.linkDown {
			if linkSince[l]++; !down {
				linkSince[l] = 0
			}
			v.degraded = v.degraded || down
			v.dataAge = math.Max(v.dataAge, float64(linkSince[l]))
		}
		sort.Strings(v.stale)
		mu.Lock()
		views[src.Now()] = v // before the poll: no response can name the epoch sooner
		mu.Unlock()
		if err := svc.Poll(); err != nil {
			t.Errorf("poll %d: %v", k, err)
		}
		svc.mu.Lock()
		f := svc.collector.Freshness()
		svc.mu.Unlock()
		mu.Lock()
		stamps = append(stamps, stamp{f, checksum(f)})
		mu.Unlock()
	}
	poll(0)
	poll(1)

	spec := mustSpec(`{"name": "imaging", "groups": [
		{"name": "server", "count": 1, "hosts": ["m-7", "m-8"]},
		{"name": "clients", "count": 3}]}`)
	requests := []SelectRequest{
		{M: 3},
		{M: 4, Algo: "bandwidth"},
		{M: 3, Pin: []string{"m-9"}},
		{M: 2, LeaseTTL: 30},
		{Spec: spec},
	}
	const workers, perWorker = 8, 120
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := requests[(i+w)%len(requests)]
				rec := do(t, h, "POST", "/select", req)
				if rec.Code != http.StatusOK {
					t.Errorf("worker %d request %d: status %d: %s", w, i, rec.Code, rec.Body)
					return
				}
				var resp SelectResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Errorf("worker %d request %d: %v", w, i, err)
					return
				}
				mu.Lock()
				want, ok := views[resp.MeasuredAt]
				answered[resp.MeasuredAt] = ok
				mu.Unlock()
				if !ok {
					t.Errorf("worker %d request %d: measured_at %v names no poll", w, i, resp.MeasuredAt)
					return
				}
				if !want.degraded {
					want = epochView{} // a healthy epoch declares nothing
				}
				if resp.Degraded != want.degraded || resp.DataAgeSeconds != want.dataAge || !slices.Equal(resp.StaleNodes, want.stale) {
					t.Errorf("worker %d request %d (epoch %v): declared degraded=%v age=%v stale=%v, the schedule says %+v",
						w, i, resp.MeasuredAt, resp.Degraded, resp.DataAgeSeconds, resp.StaleNodes, want)
					return
				}
				if excludeStale && req.Spec == nil {
					for _, name := range resp.Nodes {
						if slices.Contains(want.stale, name) && !slices.Contains(req.Pin, name) {
							t.Errorf("worker %d request %d: placed on %s, stale in epoch %v", w, i, name, resp.MeasuredAt)
						}
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for k, polling := 2, true; polling; k++ {
		poll(k)
		select {
		case <-done:
			polling = false
		default:
			runtime.Gosched()
		}
	}
	if len(answered) < 3 {
		t.Fatalf("the selects saw %d epochs: the polls did not interleave with them", len(answered))
	}
	for k, st := range stamps {
		if got := checksum(st.fresh); got != st.sum {
			t.Fatalf("poll %d's age arrays changed after it published them: checksum %v, was %v", k, got, st.sum)
		}
	}
}

// TestHierarchySelectAllocBudget bounds what one warmed -hierarchy advisory
// select allocates end to end on the benchmark's 10 101-node input, plan
// cache missed every time as tiered10k_hier's requests do: ≤ 40 KB a
// request (20 measured, 22 under the race detector). Each of the costs that
// once sat on top breaks the bound alone: a snapshot built per request
// instead of once per poll epoch and mode (≈ 165 KB), two per-request age
// arrays (≈ 160 KB), a Result and a key string per scored set (≈ 100 KB), or
// a sweep working set regrown after a collection (≈ 3.5 MB each time; core's
// free list keeps it, on any number of Ps and under the race detector too).
func TestHierarchySelectAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10k-node topology")
	}
	snap := testbed.BenchSnapshot(testbed.MultiCluster(100, 100, testbed.Ethernet100, 1e9))
	src, err := remos.FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(src, Config{DefaultMode: remos.Window, Seed: 1, Hierarchy: true})
	for i := 0; i < 2; i++ {
		if err := svc.Poll(); err != nil {
			t.Fatal(err)
		}
		src.Advance(5)
	}
	h := svc.Handler()
	i := 0
	run := func() {
		req := SelectRequest{M: 8 + (i*13)%57, Algo: []string{"balanced", "bandwidth"}[i%2], MinCPU: float64(i+1) * 1e-9}
		i++
		if w := do(t, h, "POST", "/select", req); w.Code != http.StatusOK {
			t.Fatalf("select %d: status %d: %s", i, w.Code, w.Body)
		}
	}
	const warm, n = 20, 50
	for range warm {
		run() // routes, partition, and a scratch grown to the largest m
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		run()
	}
	runtime.ReadMemStats(&after)
	if got := svc.metrics.hierRequests.With("quotient").Value(); got != warm+n {
		t.Fatalf("%v of %d selects ran grouped", got, warm+n)
	}
	if perReq := float64(after.TotalAlloc-before.TotalAlloc) / n / 1024; perReq > 40 {
		t.Fatalf("warmed hierarchical select allocates %.0f KB a request, want ≤ 40", perReq)
	}
}

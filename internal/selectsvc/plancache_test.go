package selectsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"nodeselect/internal/lease"
	"nodeselect/internal/randx"
	"nodeselect/internal/remos"
	"nodeselect/internal/testbed"
	"nodeselect/internal/topology"
)

// idleCacheService builds a service over an idle star topology of n equal
// compute nodes — every selection outcome is then a pure function of the
// lease ledger's residual view, which is what the cache tests manipulate.
func idleCacheService(t *testing.T, n int, cfg Config) (*Service, *topology.Graph) {
	t.Helper()
	g := topology.NewGraph()
	hub := g.AddNetworkNode("hub")
	for i := 0; i < n; i++ {
		id := g.AddComputeNode(fmt.Sprintf("c%02d", i))
		g.Connect(hub, id, 100e6, topology.LinkOpts{})
	}
	src := remos.NewStaticSource(g)
	cfg.DefaultMode = remos.Current
	svc := New(src, cfg)
	if err := svc.Poll(); err != nil {
		t.Fatal(err)
	}
	src.Advance(2)
	if err := svc.Poll(); err != nil {
		t.Fatal(err)
	}
	return svc, g
}

func selectNodes(t *testing.T, h http.Handler, body any) []string {
	t.Helper()
	w := do(t, h, "POST", "/select", body)
	if w.Code != http.StatusOK {
		t.Fatalf("select: status %d: %s", w.Code, w.Body.String())
	}
	var resp SelectResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Nodes
}

// TestPlanCacheHitMissInvalidate drives the full cache lifecycle through
// the HTTP surface: miss then hit on identical requests (with identical
// responses and traces), whole-cache invalidation on a snapshot poll and
// on a lease commit, and bypass labels for leased and random requests.
func TestPlanCacheHitMissInvalidate(t *testing.T) {
	svc, _ := idleCacheService(t, 6, Config{Seed: 1})
	h := svc.Handler()
	req := SelectRequest{M: 2, Algo: "bandwidth"}

	first := selectNodes(t, h, req)
	second := selectNodes(t, h, req)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached answer diverged: %v vs %v", first, second)
	}
	decs := svc.Decisions(2) // newest first
	if decs[1].Cache != "miss" || decs[0].Cache != "hit" {
		t.Fatalf("cache fields = %q, %q; want miss, hit", decs[1].Cache, decs[0].Cache)
	}
	if !reflect.DeepEqual(decs[0].Trace, decs[1].Trace) {
		t.Fatal("hit served a different trace than the miss recorded")
	}
	if hits, misses, _, entries := svc.plans.counters(); hits != 1 || misses != 1 || entries != 1 {
		t.Fatalf("counters = %d hits, %d misses, %d entries", hits, misses, entries)
	}

	// A different shape misses; re-asking it hits.
	selectNodes(t, h, SelectRequest{M: 3, Algo: "bandwidth"})
	if d := svc.Decisions(1)[0]; d.Cache != "miss" {
		t.Fatalf("new shape: cache = %q, want miss", d.Cache)
	}

	// Pin order must not defeat the canonical key.
	selectNodes(t, h, SelectRequest{M: 2, Algo: "bandwidth", Pin: []string{"c01", "c00"}})
	selectNodes(t, h, SelectRequest{M: 2, Algo: "bandwidth", Pin: []string{"c00", "c01"}})
	if d := svc.Decisions(1)[0]; d.Cache != "hit" {
		t.Fatalf("reordered pins: cache = %q, want hit", d.Cache)
	}

	// A poll moves the snapshot epoch: everything cached is flushed.
	if err := svc.Poll(); err != nil {
		t.Fatal(err)
	}
	selectNodes(t, h, req)
	if d := svc.Decisions(1)[0]; d.Cache != "miss" {
		t.Fatalf("after poll: cache = %q, want miss", d.Cache)
	}
	if _, _, inv, _ := svc.plans.counters(); inv != 1 {
		t.Fatalf("invalidations = %d, want 1", inv)
	}

	// A lease commit moves the ledger version: flushed again. The leased
	// request itself is a bypass.
	w := do(t, h, "POST", "/select", SelectRequest{
		M: 2, Algo: "bandwidth", Demand: &demand09, LeaseTTL: 60,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("leased select: status %d: %s", w.Code, w.Body.String())
	}
	if d := svc.Decisions(1)[0]; d.Cache != "bypass" {
		t.Fatalf("leased: cache = %q, want bypass", d.Cache)
	}
	selectNodes(t, h, req)
	if d := svc.Decisions(1)[0]; d.Cache != "miss" {
		t.Fatalf("after lease commit: cache = %q, want miss", d.Cache)
	}
	if _, _, inv, _ := svc.plans.counters(); inv != 2 {
		t.Fatalf("invalidations = %d, want 2", inv)
	}

	// Random placements are never cached.
	selectNodes(t, h, SelectRequest{M: 2, Algo: "random"})
	if d := svc.Decisions(1)[0]; d.Cache != "bypass" {
		t.Fatalf("random: cache = %q, want bypass", d.Cache)
	}
}

var demand09 = lease.Demand{CPU: 0.9}

// TestPlanCacheDisabled checks that a negative size turns the cache off
// entirely: no cache annotations, no plans state.
func TestPlanCacheDisabled(t *testing.T) {
	svc, _ := idleCacheService(t, 4, Config{Seed: 1, PlanCacheSize: -1})
	if svc.plans != nil {
		t.Fatal("plans cache built despite PlanCacheSize < 0")
	}
	h := svc.Handler()
	req := SelectRequest{M: 2, Algo: "bandwidth"}
	selectNodes(t, h, req)
	selectNodes(t, h, req)
	for _, d := range svc.Decisions(2) {
		if d.Cache != "" {
			t.Fatalf("cache = %q with caching disabled, want empty", d.Cache)
		}
	}
}

// TestPlanCacheFailureCached checks that deterministic failures are cached
// too: the second infeasible request is a hit with the same error class.
func TestPlanCacheFailureCached(t *testing.T) {
	svc, _ := idleCacheService(t, 4, Config{Seed: 1})
	h := svc.Handler()
	req := SelectRequest{M: 3, Algo: "bandwidth", MinBW: 1e12} // unsatisfiable floor
	for i, want := range []string{"miss", "hit"} {
		w := do(t, h, "POST", "/select", req)
		if w.Code == http.StatusOK {
			t.Fatalf("request %d unexpectedly succeeded", i)
		}
		d := svc.Decisions(1)[0]
		if d.Cache != want || d.ErrorClass != classInfeasible {
			t.Fatalf("request %d: cache=%q class=%q, want %s/%s",
				i, d.Cache, d.ErrorClass, want, classInfeasible)
		}
	}
}

// TestPlanCacheSingleflight fires identical concurrent requests within one
// epoch and counts what they cost: exactly one plan computed (one miss, the
// rest hits) from one snapshot, no 5xx, and the same nodes for everyone.
// The "cmu" case is the sustained load of a service with every default on
// (CMU testbed, tracing, plan cache): a broken plan cache or a per-request
// snapshot shows up as a count here rather than as latency.
func TestPlanCacheSingleflight(t *testing.T) {
	cases := []struct {
		name              string
		svc               func(t *testing.T) *Service
		req               SelectRequest
		workers, requests int
	}{
		{"star", func(t *testing.T) *Service {
			svc, _ := idleCacheService(t, 8, Config{Seed: 1})
			return svc
		}, SelectRequest{M: 3, Algo: "balanced"}, 16, 16},
		{"cmu", cmuLoadedService, SelectRequest{M: 4}, 4, 5000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc := tc.svc(t)
			h := svc.Handler()
			queries := snapshotsBuilt(t, h, "current")
			body, err := json.Marshal(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			var next, failed, notOK atomic.Int64
			results := make([][]string, tc.workers)
			var wg sync.WaitGroup
			for w := range tc.workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(tc.requests) {
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, httptest.NewRequest("POST", "/select", bytes.NewReader(body)))
						if rec.Code >= 500 {
							failed.Add(1)
							continue
						}
						if rec.Code != http.StatusOK {
							notOK.Add(1)
							continue
						}
						var resp SelectResponse
						if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
							t.Errorf("worker %d: %v", w, err)
							return
						}
						if results[w] == nil {
							results[w] = resp.Nodes
						} else if !reflect.DeepEqual(results[w], resp.Nodes) {
							t.Errorf("worker %d got %v, then %v", w, results[w], resp.Nodes)
							return
						}
					}
				}()
			}
			wg.Wait()
			if n := failed.Load(); n != 0 {
				t.Errorf("%d of %d responses >= 500, want 0", n, tc.requests)
			}
			if n := notOK.Load(); n != 0 {
				t.Errorf("%d of %d responses neither 200 nor >= 500", n, tc.requests)
			}
			// A worker the others outran answered nothing and has no nodes.
			var first []string
			for w, nodes := range results {
				if first == nil {
					first = nodes
				} else if nodes != nil && !reflect.DeepEqual(first, nodes) {
					t.Errorf("worker %d got %v, an earlier worker %v", w, nodes, first)
				}
			}
			hits, misses, _, _ := svc.plans.counters()
			if misses != 1 || hits != tc.requests-1 {
				t.Errorf("plan cache: %d misses, %d hits; want 1, %d", misses, hits, tc.requests-1)
			}
			if got := snapshotsBuilt(t, h, "current") - queries; got != 1 {
				t.Errorf("remos_queries_total{mode=\"current\"} rose by %v over %d selects of one poll, want 1", got, tc.requests)
			}
		})
	}
}

// cmuLoadedService serves the CMU testbed with seeded background load,
// History 8, Current mode and every other default (plan cache, tracing),
// after one poll.
func cmuLoadedService(t *testing.T) *Service {
	t.Helper()
	g := testbed.CMU()
	src := remos.NewStaticSource(g)
	rng := randx.New(1)
	for _, id := range g.ComputeNodes() {
		src.SetLoad(id, 2*rng.Float64())
	}
	svc := New(src, Config{
		Collector:   remos.CollectorConfig{History: 8},
		DefaultMode: remos.Current,
		Seed:        1,
	})
	if err := svc.Poll(); err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestPlanCacheLeaseRace is the cache-correctness race test: concurrent
// plain selects hammer the cache while leases that flip the optimal
// placement are acquired and released. After every acquire (release), a
// probe select sharing the hammering requests' cache key must reflect the
// post-commit residual — never a plan computed before the commit it raced
// with. Run under -race (make check does).
func TestPlanCacheLeaseRace(t *testing.T) {
	svc, _ := idleCacheService(t, 6, Config{Seed: 1})
	h := svc.Handler()
	// All nodes idle and equal: compute selection tie-breaks to c00, c01.
	req := SelectRequest{M: 2, Algo: "compute"}

	// The hammer goroutines must not call t.Fatal (wrong goroutine), so
	// they issue raw requests and only flag non-2xx statuses.
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					r := httptest.NewRequest("POST", "/select", bytes.NewReader(body))
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, r)
					if rec.Code != http.StatusOK {
						t.Errorf("hammer select: status %d: %s", rec.Code, rec.Body.String())
						return
					}
				}
			}
		}()
	}
	// Poller: moves the snapshot epoch concurrently with lease churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := svc.Poll(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	contains := func(nodes []string, name string) bool {
		for _, n := range nodes {
			if n == name {
				return true
			}
		}
		return false
	}
	for i := 0; i < 40; i++ {
		// Reserve nearly all CPU on the tie-break winners: the optimal
		// placement flips to c02, c03.
		w := do(t, h, "POST", "/select", SelectRequest{
			M: 2, Algo: "compute", Pin: []string{"c00", "c01"},
			Demand: &demand09, LeaseTTL: 60,
		})
		if w.Code != http.StatusOK {
			t.Fatalf("acquire %d: status %d: %s", i, w.Code, w.Body.String())
		}
		var resp SelectResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if nodes := selectNodes(t, h, req); contains(nodes, "c00") || contains(nodes, "c01") {
			t.Fatalf("iteration %d: select after acquire returned %v — a plan from before the lease commit", i, nodes)
		}
		if w := do(t, h, "DELETE", "/leases/"+resp.Lease.ID, nil); w.Code != http.StatusOK {
			t.Fatalf("release %d: status %d: %s", i, w.Code, w.Body.String())
		}
		if nodes := selectNodes(t, h, req); !contains(nodes, "c00") || !contains(nodes, "c01") {
			t.Fatalf("iteration %d: select after release returned %v — a plan from before the release", i, nodes)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSourceChangeWaitsForPoll pins the epoch contract the plan cache keys
// on: a source that changes between polls cannot reach a cached plan or
// the served snapshot until the next poll ingests it. Collector queries are
// a pure function of the polled sample ring, so a load flip that lands
// after a plan is cached leaves the repeat request a hit answering from the
// pre-flip snapshot, and only the next poll moves the epoch.
func TestSourceChangeWaitsForPoll(t *testing.T) {
	g := topology.NewGraph()
	hub := g.AddNetworkNode("hub")
	for i := 0; i < 4; i++ {
		id := g.AddComputeNode(fmt.Sprintf("c%02d", i))
		g.Connect(hub, id, 100e6, topology.LinkOpts{})
	}
	src := remos.NewStaticSource(g)
	src.SetLoad(g.NodeByName("c02"), 2.0)
	src.SetLoad(g.NodeByName("c03"), 2.0)
	// Two polls, so rate-based link counters have a window to difference over.
	svc := New(src, Config{Seed: 1, DefaultMode: remos.Current})
	if err := svc.Poll(); err != nil {
		t.Fatal(err)
	}
	src.Advance(1)
	if err := svc.Poll(); err != nil {
		t.Fatal(err)
	}

	h := svc.Handler()
	req := SelectRequest{M: 2, Algo: "compute"}
	first := selectNodes(t, h, req)
	sort.Strings(first)
	if want := []string{"c00", "c01"}; !reflect.DeepEqual(first, want) {
		t.Fatalf("initial select = %v, want the idle pair %v", first, want)
	}
	before, err := svc.snapshot("")
	if err != nil {
		t.Fatal(err)
	}

	// The source flips the world: the idle pair is now the loaded pair.
	src.SetLoad(g.NodeByName("c00"), 2.4)
	src.SetLoad(g.NodeByName("c01"), 2.4)
	src.SetLoad(g.NodeByName("c02"), 0)
	src.SetLoad(g.NodeByName("c03"), 0)
	src.Advance(1)

	second := selectNodes(t, h, req)
	sort.Strings(second)
	if d := svc.Decisions(1)[0]; d.Cache != "hit" {
		t.Fatalf("repeat select after the source changed: cache = %q, want hit", d.Cache)
	}
	if !reflect.DeepEqual(second, first) {
		t.Fatalf("cached answer changed under the same epoch: %v vs %v", second, first)
	}
	// The hit is fresh, not stale: the snapshot the epoch names is
	// untouched by the change, so recomputing now would give the same plan.
	after, err := svc.snapshot("")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.LoadAvg, before.LoadAvg) || !reflect.DeepEqual(after.AvailBW, before.AvailBW) {
		t.Fatalf("source change leaked into the served snapshot without a poll:\nloads %v -> %v",
			before.LoadAvg, after.LoadAvg)
	}

	// Only a poll ingests the change: the epoch moves, the cache flushes,
	// and the same request now answers from the flipped world.
	if err := svc.Poll(); err != nil {
		t.Fatal(err)
	}
	third := selectNodes(t, h, req)
	sort.Strings(third)
	if d := svc.Decisions(1)[0]; d.Cache != "miss" {
		t.Fatalf("select after poll: cache = %q, want miss", d.Cache)
	}
	if want := []string{"c02", "c03"}; !reflect.DeepEqual(third, want) {
		t.Fatalf("post-poll select = %v, want the newly idle pair %v", third, want)
	}
}

package lease

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"nodeselect/internal/core"
	"nodeselect/internal/randx"
	"nodeselect/internal/testbed"
	"nodeselect/internal/topology"
)

// fakeClock is an adjustable test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// balancedPlace adapts core's balanced algorithm to a PlaceFunc.
func balancedPlace(m int, cpuFloor float64) PlaceFunc {
	return func(_ context.Context, residual *topology.Snapshot, minBW float64) ([]int, error) {
		res, err := core.Balanced(residual, core.Request{M: m, MinBW: minBW, MinCPU: cpuFloor})
		if err != nil {
			return nil, err
		}
		return res.Nodes, nil
	}
}

func newStarLedger(t *testing.T, n int, opts Options) (*Ledger, *topology.Snapshot) {
	t.Helper()
	g := testbed.Star(n, 100e6)
	l, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, topology.NewSnapshot(g)
}

func TestAcquireDebitsAndRelease(t *testing.T) {
	clock := newFakeClock()
	l, snap := newStarLedger(t, 6, Options{Now: clock.Now})

	info, err := l.Acquire(context.Background(), snap, Demand{CPU: 0.4, BW: 30e6}, time.Minute, balancedPlace(3, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Nodes) != 3 {
		t.Fatalf("nodes = %v", info.Nodes)
	}
	if info.TTLSeconds != 60 {
		t.Fatalf("ttl = %v", info.TTLSeconds)
	}
	nodeCPU, linkBW := l.Committed()
	nCommitted, lCommitted := 0, 0
	for _, c := range nodeCPU {
		if c > 0 {
			if math.Abs(c-0.4) > 1e-12 {
				t.Fatalf("node cpu debit %v", c)
			}
			nCommitted++
		}
	}
	// Star, m=3: each selected node's access link carries flows to the
	// other two nodes -> debit 2 * 30e6.
	for _, bw := range linkBW {
		if bw > 0 {
			if math.Abs(bw-60e6) > 1 {
				t.Fatalf("link debit %v", bw)
			}
			lCommitted++
		}
	}
	if nCommitted != 3 || lCommitted != 3 {
		t.Fatalf("committed on %d nodes, %d links", nCommitted, lCommitted)
	}

	// Residual view reflects the debits.
	resid := l.Residual(snap)
	if resid == snap {
		t.Fatal("residual aliases the raw snapshot despite active leases")
	}
	seen := false
	for lid, bw := range resid.AvailBW {
		if linkBW[lid] > 0 {
			if math.Abs(bw-40e6) > 1 {
				t.Fatalf("residual avail %v", bw)
			}
			seen = true
		}
	}
	if !seen {
		t.Fatal("no residual link change")
	}
	for id, c := range nodeCPU {
		if c > 0 {
			if got := resid.CPU(id); math.Abs(got-0.6) > 1e-9 {
				t.Fatalf("residual cpu %v, want 0.6", got)
			}
		}
	}

	if err := l.Release(context.Background(), info.ID); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 {
		t.Fatalf("leases after release: %d", l.Len())
	}
	if r := l.Residual(snap); r != snap {
		t.Fatal("empty ledger should return the snapshot unchanged")
	}
	if err := l.Release(context.Background(), info.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double release err = %v", err)
	}
}

// TestAdmissionRejectsAndNamesBottleneck fills the star and checks the
// rejection names the binding link with the right shortfall numbers.
func TestAdmissionRejectsAndNamesBottleneck(t *testing.T) {
	clock := newFakeClock()
	l, snap := newStarLedger(t, 6, Options{Now: clock.Now})

	// Two 3-node apps exhaust all 6 access links (60e6 of 100e6 each).
	for i := 0; i < 2; i++ {
		if _, err := l.Acquire(context.Background(), snap, Demand{BW: 30e6}, time.Minute, balancedPlace(3, 0)); err != nil {
			t.Fatalf("app %d: %v", i, err)
		}
	}
	_, err := l.Acquire(context.Background(), snap, Demand{BW: 30e6}, time.Minute, balancedPlace(3, 0))
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("err %T does not carry AdmissionError", err)
	}
	if adm.Kind != "link" || adm.Bottleneck == "" {
		t.Fatalf("bottleneck = %+v", adm)
	}
	if math.Abs(adm.Need-60e6) > 1 || adm.Have > 40e6+1 {
		t.Fatalf("need %v have %v", adm.Need, adm.Have)
	}
	if l.Stats().Rejected != 1 {
		t.Fatalf("rejected stat = %d", l.Stats().Rejected)
	}
	// The ledger must be untouched by the rejection.
	if l.Len() != 2 {
		t.Fatalf("leases = %d", l.Len())
	}
}

func TestAdmissionRejectsOnCPU(t *testing.T) {
	clock := newFakeClock()
	l, snap := newStarLedger(t, 3, Options{Now: clock.Now})
	if _, err := l.Acquire(context.Background(), snap, Demand{CPU: 0.7}, time.Minute, balancedPlace(3, 0)); err != nil {
		t.Fatal(err)
	}
	// All three nodes hold only 0.3 uncommitted; the placer ignores the
	// CPU floor here, so the post-check must catch it.
	_, err := l.Acquire(context.Background(), snap, Demand{CPU: 0.7}, time.Minute, balancedPlace(3, 0))
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Kind != "node" {
		t.Fatalf("err = %v", err)
	}
	if math.Abs(adm.Need-0.7) > 1e-9 || math.Abs(adm.Have-0.3) > 1e-9 {
		t.Fatalf("need %v have %v", adm.Need, adm.Have)
	}
}

// TestFloorEscalation: with m=3 on a star, each access link needs 2 flows'
// worth; the first placement attempt under a single-flow floor picks
// partially committed links, and the escalated retry must route around
// them.
func TestFloorEscalation(t *testing.T) {
	clock := newFakeClock()
	l, snap := newStarLedger(t, 12, Options{Now: clock.Now})
	for i := 0; i < 4; i++ {
		info, err := l.Acquire(context.Background(), snap, Demand{BW: 30e6}, time.Minute, balancedPlace(3, 0))
		if err != nil {
			t.Fatalf("app %d: %v", i, err)
		}
		if len(info.Nodes) != 3 {
			t.Fatalf("app %d nodes = %v", i, info.Nodes)
		}
	}
	// 12 nodes / 3 per app = full; the fifth is rejected.
	if _, err := l.Acquire(context.Background(), snap, Demand{BW: 30e6}, time.Minute, balancedPlace(3, 0)); !errors.Is(err, ErrRejected) {
		t.Fatalf("fifth app err = %v", err)
	}
	// No link ever oversubscribed.
	_, linkBW := l.Committed()
	for lid, bw := range linkBW {
		if cap := l.Graph().Link(lid).Capacity; bw > cap+1 {
			t.Fatalf("link %d committed %v > capacity %v", lid, bw, cap)
		}
	}
}

func TestRenewAndExpiry(t *testing.T) {
	clock := newFakeClock()
	l, snap := newStarLedger(t, 6, Options{Now: clock.Now})
	info, err := l.Acquire(context.Background(), snap, Demand{CPU: 0.5}, 10*time.Second, balancedPlace(2, 0))
	if err != nil {
		t.Fatal(err)
	}

	clock.Advance(8 * time.Second)
	renewed, err := l.Renew(context.Background(), info.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := renewed.ExpiresAt.Sub(clock.Now()); got != 10*time.Second {
		t.Fatalf("renewed ttl = %v", got)
	}

	clock.Advance(9 * time.Second)
	if n := l.Sweep(); n != 0 {
		t.Fatalf("premature expiry of %d leases", n)
	}
	clock.Advance(2 * time.Second)
	if n := l.Sweep(); n != 1 {
		t.Fatalf("swept %d leases, want 1", n)
	}
	if _, err := l.Renew(context.Background(), info.ID, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("renew after expiry err = %v", err)
	}
	nodeCPU, _ := l.Committed()
	for id, c := range nodeCPU {
		if c != 0 {
			t.Fatalf("node %d still committed %v after expiry", id, c)
		}
	}
	if l.Stats().Expired != 1 {
		t.Fatalf("expired stat = %d", l.Stats().Expired)
	}
}

func TestTTLClamping(t *testing.T) {
	clock := newFakeClock()
	l, snap := newStarLedger(t, 4, Options{
		Now: clock.Now, DefaultTTL: 7 * time.Second, MaxTTL: 20 * time.Second,
	})
	a, err := l.Acquire(context.Background(), snap, Demand{}, 0, balancedPlace(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if a.TTLSeconds != 7 {
		t.Fatalf("default ttl = %v", a.TTLSeconds)
	}
	b, err := l.Acquire(context.Background(), snap, Demand{}, time.Hour, balancedPlace(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if b.TTLSeconds != 20 {
		t.Fatalf("capped ttl = %v", b.TTLSeconds)
	}
}

func TestBadDemand(t *testing.T) {
	clock := newFakeClock()
	l, snap := newStarLedger(t, 3, Options{Now: clock.Now})
	for _, d := range []Demand{{CPU: -0.1}, {CPU: 1.5}, {BW: -1}, {BW: math.Inf(1)}} {
		if _, err := l.Acquire(context.Background(), snap, d, 0, balancedPlace(1, 0)); !errors.Is(err, ErrBadDemand) {
			t.Fatalf("demand %+v err = %v", d, err)
		}
	}
}

func TestEvents(t *testing.T) {
	clock := newFakeClock()
	l, snap := newStarLedger(t, 6, Options{Now: clock.Now})
	var ops []string
	l.SetOnEvent(func(op string, _ *Lease) { ops = append(ops, op) })
	info, _ := l.Acquire(context.Background(), snap, Demand{}, time.Minute, balancedPlace(1, 0))
	l.Renew(context.Background(), info.ID, time.Minute)
	l.Release(context.Background(), info.ID)
	info2, _ := l.Acquire(context.Background(), snap, Demand{}, time.Second, balancedPlace(1, 0))
	_ = info2
	clock.Advance(2 * time.Second)
	l.Sweep()
	want := []string{"acquire", "renew", "release", "acquire", "expire"}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", ops, want)
		}
	}
}

// TestConcurrentAcquireNeverOversubscribes hammers one ledger from many
// goroutines (run under -race) and asserts the committed totals never
// exceed capacity on any node or link.
func TestConcurrentAcquireNeverOversubscribes(t *testing.T) {
	l, snap := newStarLedger(t, 16, Options{})
	const workers = 24
	demand := Demand{CPU: 0.6, BW: 35e6}
	var wg sync.WaitGroup
	var mu sync.Mutex
	admitted := 0
	rng := randx.New(7)
	sources := make([]*randx.Source, workers)
	for i := range sources {
		sources[i] = rng.SplitN(i)
	}
	for i := 0; i < workers; i++ {
		src := sources[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			place := func(_ context.Context, residual *topology.Snapshot, minBW float64) ([]int, error) {
				res, err := core.SelectOpt(core.AlgoBalanced, residual,
					core.Request{M: 2, MinBW: minBW, MinCPU: demand.CPU}, src, core.Options{})
				if err != nil {
					return nil, err
				}
				return res.Nodes, nil
			}
			if _, err := l.Acquire(context.Background(), snap, demand, time.Minute, place); err == nil {
				mu.Lock()
				admitted++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	nodeCPU, linkBW := l.Committed()
	for id, c := range nodeCPU {
		if c > 1+1e-9 {
			t.Fatalf("node %d committed cpu %v > 1", id, c)
		}
	}
	for lid, bw := range linkBW {
		if cap := l.Graph().Link(lid).Capacity; bw > cap+1 {
			t.Fatalf("link %d committed %v > capacity %v", lid, bw, cap)
		}
	}
	if admitted == 0 {
		t.Fatal("no application admitted")
	}
	if admitted > 16/2 {
		t.Fatalf("admitted %d apps, more than node capacity allows", admitted)
	}
	if st := l.Stats(); st.Acquired != int64(admitted) || st.Acquired+st.Rejected != workers {
		t.Fatalf("stats %+v vs admitted %d of %d", st, admitted, workers)
	}
}

func TestStartSweeper(t *testing.T) {
	l, snap := newStarLedger(t, 4, Options{})
	if _, err := l.Acquire(context.Background(), snap, Demand{}, 30*time.Millisecond, balancedPlace(1, 0)); err != nil {
		t.Fatal(err)
	}
	stop := l.StartSweeper(10 * time.Millisecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for l.Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if l.Len() != 0 {
		t.Fatal("sweeper did not reclaim the expired lease")
	}
	stop()
	stop() // idempotent
}

// TestTransitionAllocs counts the heap allocations of one leased
// acquire+renew+release on a WAL ledger — the in-process stand-in for
// allocs_per_req on the flat200_admit workload. The bound is what the
// ledger allocated when standalone transitions mutated in place instead of
// committing through Apply: routing them through Apply must cost nothing
// extra (Apply parses every record's lease ID, and a Record that escapes
// on every commit would show here).
func TestTransitionAllocs(t *testing.T) {
	const bound = 41
	clock := newFakeClock()
	g := testbed.Star(16, 100e6)
	w, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w.CompactEvery = math.MaxInt // compaction is not part of the transition
	l, err := New(g, Options{Now: clock.Now, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	snap := topology.NewSnapshot(g)
	nodes := []int{1, 2, 3, 4}
	place := func(context.Context, *topology.Snapshot, float64) ([]int, error) { return nodes, nil }
	ctx := context.Background()
	avg := testing.AllocsPerRun(50, func() {
		info, err := l.Acquire(ctx, snap, Demand{CPU: 0.25, BW: 1e6}, time.Minute, place)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Renew(ctx, info.ID, 2*time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := l.Release(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("acquire+renew+release: %.0f allocations", avg)
	if avg > bound {
		t.Fatalf("acquire+renew+release allocates %.0f objects, bound %d", avg, bound)
	}
}

// TestLeaseSeq pins the lease-ID parser that Apply runs on every record:
// ledger-issued IDs parse to their sequence, anything else is -1.
func TestLeaseSeq(t *testing.T) {
	for _, tc := range []struct {
		id   string
		want int64
	}{
		{"lease-0", 0},
		{"lease-7", 7},
		{"lease-9223372036854775807", math.MaxInt64},
		{"lease-", -1},
		{"x-1", -1},
		{"", -1},
		{"lease-9223372036854775808", -1}, // overflows int64
		// Malformed forms no ledger issues: trailing garbage, a sign and a
		// space are not a sequence.
		{"lease-5x", -1},
		{"lease--3", -1},
		{"lease- 8", -1},
	} {
		if got := leaseSeq(tc.id); got != tc.want {
			t.Errorf("leaseSeq(%q) = %d, want %d", tc.id, got, tc.want)
		}
	}
}

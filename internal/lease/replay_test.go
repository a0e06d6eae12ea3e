package lease

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nodeselect/internal/testbed"
	"nodeselect/internal/topology"
)

// randomPlace is a PlaceFunc that picks m distinct compute nodes of a
// testbed.Star at random, ignoring the residual view, so admission (not
// the placer) decides what fits.
func randomPlace(rng *rand.Rand, n, m int) PlaceFunc {
	picked := rng.Perm(n)[:m]
	return func(context.Context, *topology.Snapshot, float64) ([]int, error) {
		nodes := make([]int, m)
		for i, p := range picked {
			nodes[i] = p + 1 // node 0 is the switch
		}
		return nodes, nil
	}
}

// TestWALIsAReplicatedLogOfOne: a standalone ledger's WAL is the log a
// follower would be sent. A seeded schedule of acquires, batches, renews,
// migrations, releases and lazy expiries runs on a WAL ledger; applying
// every logged record, in order, to a fresh ledger on the same graph and
// clock must reproduce the same leases and the same committed vectors.
//
// Demands are dyadic (CPU in eighths, bandwidth in whole Mb/s), so debit
// sums are exact in any order: a migration reserves the new half before
// returning the old one, while a replayed migrate record drops the old
// lease before installing the new one.
func TestWALIsAReplicatedLogOfOne(t *testing.T) {
	const n = 16
	clock := newFakeClock()
	g := testbed.Star(n, 100e6)
	snap := topology.NewSnapshot(g)
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.CompactEvery = math.MaxInt // keep every record in the log
	l, err := New(g, Options{Now: clock.Now, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()

	rng := rand.New(rand.NewSource(1))
	ctx := context.Background()
	demand := func() Demand {
		return Demand{CPU: float64(1+rng.Intn(3)) / 8, BW: float64(rng.Intn(3)) * 1e6}
	}
	ttl := func() time.Duration { return time.Duration(1+rng.Intn(30)) * time.Second }
	pick := func() (string, bool) {
		active := l.Active()
		if len(active) == 0 {
			return "", false
		}
		return active[rng.Intn(len(active))].ID, true
	}
	for step := 0; step < 400; step++ {
		switch rng.Intn(6) {
		case 0:
			l.Acquire(ctx, snap, demand(), ttl(), randomPlace(rng, n, 1+rng.Intn(3)))
		case 1:
			items := make([]BatchItem, 1+rng.Intn(3))
			for i := range items {
				items[i] = BatchItem{Demand: demand(), TTL: ttl(), Place: randomPlace(rng, n, 1+rng.Intn(3)),
					Key: fmt.Sprintf("k-%d-%d", step, i), Seq: uint64(i)}
			}
			l.AcquireBatch(ctx, snap, items)
		case 2:
			if id, ok := pick(); ok {
				l.Renew(ctx, id, ttl())
			}
		case 3:
			if id, ok := pick(); ok {
				info, _ := l.Get(id)
				l.Migrate(ctx, snap, id, randomPlace(rng, n, len(info.Nodes)))
			}
		case 4:
			if id, ok := pick(); ok {
				l.Release(ctx, id)
			}
		case 5:
			clock.Advance(time.Duration(rng.Intn(8000)) * time.Millisecond)
		}
	}
	l.Sweep()
	st := l.Stats()
	if st.Acquired == 0 || st.Batches == 0 || st.Renewed == 0 || st.Migrated == 0 || st.Released == 0 || st.Expired == 0 {
		t.Fatalf("schedule missed a transition kind: %+v", st)
	}

	f, err := os.Open(filepath.Join(dir, "ledger.wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, _, torn, err := ScanRecords(f)
	if err != nil || torn {
		t.Fatalf("scan: %d records, torn=%v, err=%v", len(recs), torn, err)
	}
	replay, err := New(g, Options{Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		replay.Apply(rec)
	}

	want, got := l.Active(), replay.Active()
	if len(want) == 0 {
		t.Fatal("schedule ended with no active lease: nothing to compare")
	}
	if len(got) != len(want) {
		t.Fatalf("replay holds %d leases, ledger %d", len(got), len(want))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.ID != b.ID || fmt.Sprint(a.Nodes) != fmt.Sprint(b.Nodes) || a.CPU != b.CPU || a.BW != b.BW ||
			fmt.Sprint(a.Links) != fmt.Sprint(b.Links) || a.ExpiresAt.UnixMilli() != b.ExpiresAt.UnixMilli() {
			t.Fatalf("lease %d: replay %+v, ledger %+v", i, b, a)
		}
	}
	wantCPU, wantBW := l.Committed()
	gotCPU, gotBW := replay.Committed()
	for id := range wantCPU {
		if gotCPU[id] != wantCPU[id] {
			t.Fatalf("node %d: replay commits %v cpu, ledger %v", id, gotCPU[id], wantCPU[id])
		}
	}
	for lid := range wantBW {
		if gotBW[lid] != wantBW[lid] {
			t.Fatalf("link %d: replay commits %v bw, ledger %v", lid, gotBW[lid], wantBW[lid])
		}
	}
}

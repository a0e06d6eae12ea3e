package selectsvc

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nodeselect/internal/lease"
	"nodeselect/internal/remos"
	"nodeselect/internal/testbed"
)

// TestBatchedLeasedSelectsCoalesce drives n concurrent leased selects
// through a WAL-backed service running the admission pipeline with
// BatchMax n and a window far longer than the test: the batch closes when
// the n-th request arrives, and the counts show the n acquires paid for
// one commit — one batch receipt on every decision, one ledger batch, and
// one "op":"batch" line (one fsync) in the WAL.
func TestBatchedLeasedSelectsCoalesce(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	g := testbed.Star(12, 100e6)
	wal, err := lease.OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := lease.New(g, lease.Options{WAL: wal})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ledger.Close() })
	src := remos.NewStaticSource(g)
	svc := New(src, Config{
		DefaultMode: remos.Current,
		Ledger:      ledger,
		BatchWindow: 5 * time.Second,
		BatchMax:    n,
	})
	t.Cleanup(svc.StopBatching)
	for range 2 {
		if err := svc.Poll(); err != nil {
			t.Fatal(err)
		}
		src.Advance(2)
	}
	h := svc.Handler()

	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := do(t, h, "POST", "/select", SelectRequest{
				M: 2, Demand: &lease.Demand{CPU: 0.05}, LeaseTTL: 60,
			})
			if w.Code != 200 {
				t.Errorf("leased select status %d: %s", w.Code, w.Body)
			}
		}()
	}
	wg.Wait()

	w := do(t, h, "GET", "/decisions", nil)
	var ds []Decision
	if err := json.Unmarshal(w.Body.Bytes(), &ds); err != nil {
		t.Fatal(err)
	}
	leased, receipts := 0, map[string]int{}
	for _, d := range ds {
		if d.LeaseID == "" {
			continue
		}
		leased++
		receipts[d.BatchID]++
		if d.BatchSize != n {
			t.Errorf("decision %d: batch %q of size %d, want one batch of %d", d.ID, d.BatchID, d.BatchSize, n)
		}
	}
	if leased != n || len(receipts) != 1 {
		t.Errorf("%d leased decisions by batch receipt %v, want %d under one receipt", leased, receipts, n)
	}
	if got := ledger.Stats().Batches; got != 1 {
		t.Errorf("ledger committed %d batches, want 1", got)
	}
	log, err := os.ReadFile(filepath.Join(dir, "ledger.wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(log, []byte(`"op":"batch"`)); got != 1 {
		t.Errorf(`%d "op":"batch" lines in the WAL for %d acquires, want 1`, got, n)
	}
}

// TestBatchedRejectionCarriesReceipt: an infeasible leased request still
// rides a batch's solve, so its audit entry names the batch it was
// rejected in.
func TestBatchedRejectionCarriesReceipt(t *testing.T) {
	svc, _ := newStarService(t, 4, Config{BatchWindow: time.Millisecond})
	t.Cleanup(svc.StopBatching)
	h := svc.Handler()

	w := do(t, h, "POST", "/select", SelectRequest{
		// 200Mbps per flow on 100Mbps access links: nowhere to admit it.
		M: 2, Demand: &lease.Demand{BW: 200e6}, LeaseTTL: 60,
	})
	if w.Code != 409 && w.Code != 422 {
		t.Fatalf("infeasible leased select status %d: %s", w.Code, w.Body)
	}
	dw := do(t, h, "GET", "/decisions?n=1", nil)
	var ds []Decision
	if err := json.Unmarshal(dw.Body.Bytes(), &ds); err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || ds[0].Error == "" {
		t.Fatalf("decision %+v", ds)
	}
	if ds[0].BatchID == "" {
		t.Fatal("rejected leased decision lost its batch receipt")
	}
}

// TestSerialModeHasNoBatchReceipts: with BatchWindow unset the service
// takes the direct ledger path and audits no batch fields.
func TestSerialModeHasNoBatchReceipts(t *testing.T) {
	svc, _ := newStarService(t, 6, Config{})
	h := svc.Handler()

	w := do(t, h, "POST", "/select", SelectRequest{
		M: 2, Demand: &lease.Demand{CPU: 0.1}, LeaseTTL: 60,
	})
	if w.Code != 200 {
		t.Fatalf("leased select status %d: %s", w.Code, w.Body)
	}
	dw := do(t, h, "GET", "/decisions?n=1", nil)
	var ds []Decision
	if err := json.Unmarshal(dw.Body.Bytes(), &ds); err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || ds[0].BatchID != "" || ds[0].BatchSize != 0 {
		t.Fatalf("serial decision carries batch fields: %+v", ds)
	}
}

// TestBatchedCommitInvalidatesPlanCache: a lease committed through the
// batch pipeline bumps the ledger version exactly like a serial commit,
// so cached advisory plans are flushed — miss, hit, batched commit, miss.
func TestBatchedCommitInvalidatesPlanCache(t *testing.T) {
	svc, _ := idleCacheService(t, 6, Config{Seed: 1, BatchWindow: time.Millisecond})
	t.Cleanup(svc.StopBatching)
	h := svc.Handler()

	advisory := SelectRequest{M: 2}
	selectNodes(t, h, advisory)
	selectNodes(t, h, advisory)

	// Batched leased commit.
	w := do(t, h, "POST", "/select", SelectRequest{
		M: 2, Demand: &lease.Demand{CPU: 0.4}, LeaseTTL: 300,
	})
	if w.Code != 200 {
		t.Fatalf("leased select status %d: %s", w.Code, w.Body)
	}
	selectNodes(t, h, advisory)

	dw := do(t, h, "GET", "/decisions", nil)
	var ds []Decision
	if err := json.Unmarshal(dw.Body.Bytes(), &ds); err != nil {
		t.Fatal(err)
	}
	// Newest first: [advisory miss, leased bypass, advisory hit, advisory miss].
	if len(ds) != 4 {
		t.Fatalf("%d decisions, want 4", len(ds))
	}
	got := []string{ds[3].Cache, ds[2].Cache, ds[1].Cache, ds[0].Cache}
	want := []string{"miss", "hit", "bypass", "miss"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cache labels %v, want %v (batched commit must flush the plan cache)", got, want)
		}
	}
	if ds[1].BatchID == "" {
		t.Fatal("leased decision missing batch receipt")
	}
}

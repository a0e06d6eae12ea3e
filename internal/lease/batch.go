package lease

import (
	"context"
	"fmt"
	"sort"
	"time"

	"nodeselect/internal/reqtrace"
	"nodeselect/internal/topology"
)

// Epoch-batch admission: AcquireBatch admits a whole window of concurrent
// select+admit requests in one critical section and commits them as ONE
// WAL record (one fsync; one replication round on a replicated ledger).
// The batch is solved strictly serially against the ledger's residual
// view — each item's placement sees every earlier item's debits — in a
// deterministic priority order, so the outcome is exactly what replaying
// the same requests one at a time in that order would produce. That
// serial-equivalence is the correctness contract (property-tested in
// batch_test.go); batching buys throughput only by amortizing the
// per-transition durability cost, never by relaxing admission.

// BatchItem is one admission request inside a batch.
type BatchItem struct {
	// Ctx carries the item's request trace; nil means context.Background.
	// Placement spans and the nested WAL record's RequestID come from it.
	Ctx context.Context
	// Demand, TTL, Shape and Place mean exactly what they mean on
	// AcquireShaped.
	Demand Demand
	TTL    time.Duration
	Shape  *Shape
	Place  PlaceFunc
	// Key is the deterministic tiebreak between items of equal demand —
	// canonically the client request ID. Ordering by Key before arrival
	// sequence is what makes the commit order a pure function of the
	// request set: shuffling arrival within a window cannot reorder items
	// with distinct keys.
	Key string
	// Seq is the arrival sequence within the window, the final tiebreak
	// for items whose demand and key both collide.
	Seq uint64
}

// BatchResult is the per-item outcome, in the same order the items were
// given (not priority order).
type BatchResult struct {
	Info Info
	Err  error
}

func (it *BatchItem) ctx() context.Context {
	if it.Ctx != nil {
		return it.Ctx
	}
	return context.Background()
}

// batchLess is the deterministic admission priority: larger demands first
// (CPU, then bandwidth — the hardest items get first pick of capacity,
// which also maximizes packing for the leftovers), then request Key, then
// arrival sequence. Key precedes Seq so that identical request sets
// arriving in shuffled order still commit identically.
func batchLess(a, b *BatchItem) bool {
	if a.Demand.CPU != b.Demand.CPU {
		return a.Demand.CPU > b.Demand.CPU
	}
	if a.Demand.BW != b.Demand.BW {
		return a.Demand.BW > b.Demand.BW
	}
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Seq < b.Seq
}

// batchOrder returns item indices in admission priority order.
func batchOrder(items []BatchItem) []int {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return batchLess(&items[order[i]], &items[order[j]])
	})
	return order
}

// AcquireBatch admits every item of the batch in one critical section:
// expired leases are swept once, then each item runs the same
// place-then-admission-check sequence as Acquire — in priority order,
// against the residual view that already includes every earlier item's
// debits — and the accepted set commits as a single OpBatch record: one
// WAL line, or one quorum round on a replicated ledger. Every accepted item
// is reserved as a pending lease, and Apply finalizes all of them in log
// order. Rejected items carry their AdmissionError (or placer error) in
// their BatchResult; a failed commit fails the whole accepted set and
// returns its debits (all-or-nothing, matching the one-line-one-fsync
// crash story).
func (l *Ledger) AcquireBatch(ctx context.Context, snap *topology.Snapshot, items []BatchItem) []BatchResult {
	ctx, span := reqtrace.StartSpan(ctx, "lease.acquire_batch")
	span.SetAttr("items", fmt.Sprint(len(items)))
	defer span.End()

	res := make([]BatchResult, len(items))
	if snap == nil || snap.Graph != l.g {
		err := fmt.Errorf("lease: snapshot does not belong to the ledger's graph")
		for i := range res {
			res[i].Err = err
		}
		span.Fail(err)
		return res
	}
	// Malformed demands drop out before ordering, exactly as Acquire
	// rejects them before taking the lock.
	solvable := make([]bool, len(items))
	for i := range items {
		if err := items[i].Demand.Validate(); err != nil {
			res[i].Err = err
			continue
		}
		solvable[i] = true
	}
	order := batchOrder(items)

	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.opt.Now()
	l.sweepLocked(now)
	// Each accepted item becomes a pending lease whose debits are in place
	// at once, so the next item's residual sees them.
	type accepted struct {
		idx int
		id  string
	}
	var acc []accepted
	var nested []Record
	for _, idx := range order {
		if !solvable[idx] {
			continue
		}
		it := &items[idx]
		nodes, debits, err := l.placeAdmitLocked(it.ctx(), snap, it.Demand, it.Place)
		if err != nil {
			res[idx].Err = err
			continue
		}
		ls := l.reserveLocked(nodes, it.Demand, it.Shape, debits, now, l.clampTTL(it.TTL))
		acc = append(acc, accepted{idx, ls.ID})
		rec := acquireRecord(l.g, ls)
		rec.RequestID = reqtrace.TraceID(it.ctx())
		nested = append(nested, rec)
	}
	if len(acc) == 0 {
		return res
	}
	err := l.commitLocked(ctx, Record{Op: OpBatch, Batch: nested, RequestID: reqtrace.TraceID(ctx)})
	for _, a := range acc {
		res[a.idx].Info, res[a.idx].Err = l.settleAcquireLocked(a.id, err)
	}
	return res
}

package lease

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// commitLocked makes one transition's record durable and installs it
// through Apply; it is the only place the ledger's two modes differ. Every
// transition — acquire, batch, renew, release, migrate — has one body, in
// three phases:
//
//  1. Under the lock: validate, run admission against the residual view,
//     and *optimistically reserve* the outcome (a pending lease, a
//     reserve-new-alongside-old handover, an inflight marker). The
//     reservation debits capacity immediately, so a concurrent admission
//     cannot double-count it, but stays invisible to readers.
//  2. commitLocked(rec).
//  3. Under the lock: read back what Apply did. Success means Apply
//     finalized the reservation; failure rolls the optimistic half back
//     (and if the record still commits later — a quorum ack can race an
//     error — Apply reconciles by installing from the record itself).
//
// A standalone ledger is a cluster of one: the record is appended and
// fsynced to the WAL (when there is one), then applied, all inside the
// caller's critical section — fsync stays under the ledger lock, and no
// other caller ever observes the reservation. A replicated ledger cannot
// hold the lock across a quorum round-trip, which would freeze every read
// for milliseconds per write: it unlocks, proposes through the Replicator
// (which returns once a majority has fsynced the record AND Apply has run
// locally), and relocks.
//
// Apply is the only place committed records mutate ledger state, in log
// order, on every replica — leader included. The optimistic reservations
// are bookkeeping around Apply, never a substitute for it. rec is passed by
// value so that only the replicated branch's copy escapes to the heap.
// Callers hold l.mu.
func (l *Ledger) commitLocked(ctx context.Context, rec Record) error {
	if r := l.opt.Replicator; r != nil {
		proposal := rec
		l.mu.Unlock()
		err := r.Replicate(ctx, &proposal)
		l.mu.Lock()
		return err
	}
	if l.opt.WAL != nil {
		if err := l.opt.WAL.append(ctx, rec); err != nil {
			return fmt.Errorf("lease: wal: %w", err)
		}
	}
	l.applyLocked(rec)
	l.maybeCompactLocked()
	return nil
}

// sweepTimeout bounds how long one expiry proposal may wait on the quorum
// before the sweeper gives up and retries on its next tick.
const sweepTimeout = 5 * time.Second

// sweepReplicated proposes an expiry record per due lease. Each record is
// stamped with the expiry the sweeper saw, so Apply on every replica can
// deterministically ignore the expiry when a renew outran it. The first
// proposal error aborts the pass — lost leadership or a lost quorum makes
// the remaining proposals pointless; they retry next tick (on whoever
// leads then).
func (l *Ledger) sweepReplicated(r Replicator) int {
	l.mu.Lock()
	now := l.opt.Now()
	type due struct {
		id     string
		expiry int64
	}
	var dues []due
	for _, ls := range l.leases {
		if !ls.Expiry.After(now) && !l.transitionInFlightLocked(ls) {
			ls.inflight++
			dues = append(dues, due{ls.ID, ls.Expiry.UnixMilli()})
		}
	}
	l.mu.Unlock()
	sort.Slice(dues, func(i, j int) bool { return dues[i].id < dues[j].id })
	n := 0
	for i, d := range dues {
		ctx, cancel := context.WithTimeout(context.Background(), sweepTimeout)
		rec := Record{Op: OpExpire, ID: d.id, ExpiryUnixMS: d.expiry}
		err := r.Replicate(ctx, &rec)
		cancel()
		l.mu.Lock()
		if cur := l.leases[d.id]; cur != nil {
			cur.inflight--
		}
		if err != nil {
			for _, rest := range dues[i+1:] {
				if cur := l.leases[rest.id]; cur != nil {
					cur.inflight--
				}
			}
			l.mu.Unlock()
			break
		}
		l.mu.Unlock()
		n++
	}
	return n
}

// Apply installs one committed transition. The replication layer calls it
// in log order on every replica — leader included, where it doubles as the
// finalizer for the proposal's optimistic reservation. It must be
// deterministic: given the same record sequence, every replica's ledger
// converges to identical leases, debits and stats, regardless of local
// clocks (which is why expiry decisions compare against the record's
// stamp, never time.Now).
func (l *Ledger) Apply(rec Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.applyLocked(rec)
}

// applyLocked is Apply under the caller's lock; a standalone ledger's
// commit and expiry sweep install their records through it. Callers hold
// l.mu.
func (l *Ledger) applyLocked(rec Record) {
	if seq := rec.Seq(); seq >= l.nextID {
		l.nextID = seq + 1
	}
	switch rec.Op {
	case OpNoop:
	case OpAcquire:
		l.applyAcquireLocked(rec)
	case OpBatch:
		// One committed record, many acquires: apply the nested records in
		// their stored (priority) order, exactly as the proposer solved
		// them. All-or-nothing durability is the record framing's job — a
		// batch is one log line — so by the time Apply sees it, every
		// nested acquire is committed. (rec.Seq() already advanced the ID
		// counter past the highest nested sequence above.)
		for _, sub := range rec.Batch {
			l.applyAcquireLocked(sub)
		}
		l.stats.Batches++
	case OpMigrate:
		ls, ok := l.leases[rec.ID]
		if ok && ls.handoverVer != 0 && l.nodeNamesMatchLocked(rec.Nodes, ls.pendingNodes) {
			// Finalize the proposer's reserve-new-alongside-old handover:
			// the new half is already debited, so return the old half and
			// promote.
			l.debitLocked(ls.Nodes, ls.Demand.CPU, ls.linkBW, -1)
			ls.Nodes, ls.linkBW = ls.pendingNodes, ls.pendingLinkBW
			ls.pendingNodes, ls.pendingLinkBW, ls.handoverVer = nil, nil, 0
			l.version++
			l.stats.Migrated++
			l.event("migrate", ls)
			return
		}
		// Follower (or replay) path: a migrate record carries the full
		// post-handover lease, so it is a wholesale replacement.
		if ok {
			l.dropLocked(ls)
		}
		if ls := l.installRecordLocked(rec); ls != nil {
			l.stats.Migrated++
			l.event("migrate", ls)
		}
	case OpRenew:
		if ls, ok := l.leases[rec.ID]; ok {
			ls.Expiry = time.UnixMilli(rec.ExpiryUnixMS)
			l.stats.Renewed++
			l.event("renew", ls)
		}
	case OpRelease:
		if ls, ok := l.leases[rec.ID]; ok {
			l.dropLocked(ls)
			l.stats.Released++
			l.event("release", ls)
		}
	case OpExpire:
		ls, ok := l.leases[rec.ID]
		if !ok {
			return
		}
		if rec.ExpiryUnixMS != 0 && ls.Expiry.UnixMilli() > rec.ExpiryUnixMS {
			// A renew committed between the sweep's proposal and this
			// record: the term the proposer saw expire has been superseded,
			// and every replica skips the drop by the same comparison.
			return
		}
		l.dropLocked(ls)
		l.stats.Expired++
		l.event("expire", ls)
	}
}

// applyAcquireLocked installs one committed acquire: it finalizes the
// proposer's own pending reservation when one exists, or installs the
// lease wholesale from the record (follower and replay paths). Callers
// hold l.mu.
func (l *Ledger) applyAcquireLocked(rec Record) {
	if ls, ok := l.leases[rec.ID]; ok {
		if ls.pending {
			// Finalize the proposer's own reservation: debits are already
			// in place, the lease just becomes visible.
			ls.pending = false
			l.version++
			l.stats.Acquired++
			l.event("acquire", ls)
			return
		}
		// Same ID already live (log replayed over a warm ledger):
		// replace wholesale rather than double-debit.
		l.dropLocked(ls)
	}
	if ls := l.installRecordLocked(rec); ls != nil {
		l.stats.Acquired++
		l.event("acquire", ls)
	}
}

// installRecordLocked creates a lease wholesale from an acquire- or
// migrate-shaped record: node names resolved against the current topology,
// link debits recomputed from its routes. Followers, replays and WAL
// recovery all install through it, so after a topology change they degrade
// alike: records naming unknown nodes are skipped (counted in
// RecoverySkipped). No expiry clock check happens here: applying is
// deterministic, and reclaiming overdue leases is the sweep's job
// (recovery checks expiry before it installs). Callers hold l.mu.
func (l *Ledger) installRecordLocked(rec Record) *Lease {
	nodes := make([]int, 0, len(rec.Nodes))
	for _, name := range rec.Nodes {
		id := l.g.NodeByName(name)
		if id < 0 {
			l.stats.RecoverySkipped++
			return nil
		}
		nodes = append(nodes, id)
	}
	sort.Ints(nodes)
	ls := &Lease{
		ID:      rec.ID,
		Nodes:   nodes,
		Demand:  Demand{CPU: rec.CPU, BW: rec.BW},
		Shape:   rec.Shape.clone(),
		Created: time.UnixMilli(rec.CreatedUnixMS),
		Expiry:  time.UnixMilli(rec.ExpiryUnixMS),
		linkBW:  l.linkDebits(nodes, rec.BW),
	}
	l.debitLocked(nodes, rec.CPU, ls.linkBW, 1)
	l.leases[ls.ID] = ls
	l.version++
	return ls
}

// nodeNamesMatchLocked reports whether the record's node names are exactly
// the given node IDs (both sides sorted the same way: IDs ascending, names
// in ID order). Callers hold l.mu.
func (l *Ledger) nodeNamesMatchLocked(names []string, ids []int) bool {
	if len(names) != len(ids) {
		return false
	}
	for i, id := range ids {
		if l.g.Node(id).Name != names[i] {
			return false
		}
	}
	return true
}

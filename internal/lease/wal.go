package lease

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"nodeselect/internal/reqtrace"
	"nodeselect/internal/topology"
)

// The ledger's persistence is an append-only JSON-lines write-ahead log
// plus a periodic snapshot of the active leases. Every transition appends
// one record, synced to disk before Apply installs it, so an admitted
// lease is never lost: the WAL is the replicated log of a cluster of one,
// and applying its records in order to a fresh ledger rebuilds this one.
// Once enough records accumulate the log is compacted: the active set is
// written to a snapshot file and the log truncated. Recovery loads the snapshot and replays the log on top,
// tolerating a torn final line from a crash mid-append: the prefix is
// recovered, a warning is logged, and the file is truncated back to the
// last intact record so later appends never concatenate onto torn bytes.
//
// Records carry node *names* rather than IDs and no link debits: debits
// are recomputed from the current topology's routes at recovery, so a
// restart against a re-discovered (but equivalent) topology stays
// consistent, and one against a changed topology degrades by skipping
// leases whose nodes no longer exist.

// WAL record operations. The same record framing is the unit of log
// replication in internal/replica, so the constants are exported.
const (
	OpAcquire = "acquire"
	OpRenew   = "renew"
	OpRelease = "release"
	OpExpire  = "expire"
	// OpMigrate carries the full post-handover lease state (same ID, new
	// nodes): replay lands on exactly one of the two placements.
	OpMigrate = "migrate"
	// OpNoop is a replication barrier: a freshly elected leader appends one
	// to commit its predecessors' tail (a leader may only count replicas
	// for entries of its own term). It changes no ledger state.
	OpNoop = "noop"
	// OpBatch carries one epoch-batch admission: Batch holds one
	// acquire-shaped record per admitted lease, in the batch's priority
	// order. The whole batch is one log line and one fsync, so replay is
	// all-or-nothing — a crash mid-append tears the line and recovery
	// drops the entire batch, never a prefix of it.
	OpBatch = "batch"
)

// Record is one logged transition (and, for acquire/migrate, the full
// lease). It doubles as the replicated log entry streamed between selectd
// replicas: the leader stamps Term and Index before fsyncing, so every
// replica's log is comparable line-for-line.
type Record struct {
	Op    string   `json:"op"`
	ID    string   `json:"id,omitempty"`
	Nodes []string `json:"nodes,omitempty"`
	CPU   float64  `json:"cpu,omitempty"`
	BW    float64  `json:"bw,omitempty"`
	// Shape preserves the originating request across restarts so the
	// rebalance controller can keep re-placing recovered leases.
	Shape *Shape `json:"shape,omitempty"`
	// Timestamps are unix milliseconds so records are compact and
	// timezone-free. On an expire record, ExpiryUnixMS snapshots the
	// expiry the proposer saw: replicated replay drops the lease only if
	// its applied expiry is not newer, so a renew that committed first
	// deterministically wins on every replica.
	CreatedUnixMS int64 `json:"created_unix_ms,omitempty"`
	ExpiryUnixMS  int64 `json:"expiry_unix_ms,omitempty"`
	// RequestID correlates the record with the request trace that caused
	// the transition — the same ID the service echoed in X-Request-ID.
	// Background transitions (expiry sweeps) log without one.
	RequestID string `json:"request_id,omitempty"`
	// Term and Index are the replication stamps: the leader's election term
	// and the record's position in the replicated log. Zero on a
	// single-node WAL.
	Term  uint64 `json:"term,omitempty"`
	Index uint64 `json:"index,omitempty"`
	// Batch holds the nested acquire records of an OpBatch commit, in
	// priority order. Empty for every other op.
	Batch []Record `json:"batch,omitempty"`
}

// Seq extracts the record's lease sequence number ("lease-N" → N), -1 when
// the ID is not ledger-issued. For a batch record it is the highest
// sequence among the nested acquires, so ID-counter advancement (leader
// failover, Apply) sees through the batching.
func (r Record) Seq() int64 {
	seq := leaseSeq(r.ID)
	for i := range r.Batch {
		if s := leaseSeq(r.Batch[i].ID); s > seq {
			seq = s
		}
	}
	return seq
}

// acquireRecord renders a lease as its WAL form.
func acquireRecord(g *topology.Graph, ls *Lease) Record {
	rec := Record{
		Op:            OpAcquire,
		ID:            ls.ID,
		Nodes:         make([]string, len(ls.Nodes)),
		CPU:           ls.Demand.CPU,
		BW:            ls.Demand.BW,
		Shape:         ls.Shape,
		CreatedUnixMS: ls.Created.UnixMilli(),
		ExpiryUnixMS:  ls.Expiry.UnixMilli(),
	}
	for i, id := range ls.Nodes {
		rec.Nodes[i] = g.Node(id).Name
	}
	return rec
}

// walSnapshot is the snapshot file's document.
type walSnapshot struct {
	// Active holds one acquire-shaped record per live lease.
	Active []Record `json:"active"`
	// NextSeq preserves the ID counter across compactions, so IDs are
	// never reused even when the log of issued leases is compacted away.
	NextSeq int64 `json:"next_seq"`
}

// ScanRecords reads JSON-lines records from f (which must be positioned at
// the start), returning the decoded prefix, the byte length of that intact
// prefix, and whether a torn (truncated or half-written) trailing line was
// found. A torn line ends the scan: everything before it is trustworthy
// because appends are synced in order. Shared by the ledger WAL and the
// replica log, whose on-disk framing is the same.
func ScanRecords(f *os.File) (recs []Record, goodLen int64, torn bool, err error) {
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		// +1 for the newline the scanner stripped.
		lineLen := int64(len(line)) + 1
		if len(line) == 0 {
			goodLen += lineLen
			continue
		}
		var rec Record
		if jerr := json.Unmarshal(line, &rec); jerr != nil {
			return recs, goodLen, true, nil
		}
		recs = append(recs, rec)
		goodLen += lineLen
	}
	if serr := sc.Err(); serr != nil {
		// A line past the scanner's buffer ceiling is torn garbage, not a
		// reason to lose the intact prefix.
		if serr == bufio.ErrTooLong {
			return recs, goodLen, true, nil
		}
		return nil, 0, false, serr
	}
	return recs, goodLen, false, nil
}

// WAL persists ledger transitions under one directory.
type WAL struct {
	dir string

	mu      sync.Mutex
	f       *os.File
	records int   // records in the current log segment
	maxSeq  int64 // highest lease sequence ever observed
	// CompactEvery is the record count that triggers snapshot+truncate
	// (default 256); settable before the ledger starts using the WAL.
	CompactEvery int
	// Logf receives recovery warnings (torn-tail truncation); defaults to
	// the standard logger. Settable before recovery runs.
	Logf func(format string, args ...any)
}

func (w *WAL) logPath() string  { return filepath.Join(w.dir, "ledger.wal.jsonl") }
func (w *WAL) snapPath() string { return filepath.Join(w.dir, "ledger.snap.json") }

// Dir returns the WAL's directory.
func (w *WAL) Dir() string { return w.dir }

// OpenWAL opens (creating as needed) the ledger persistence under dir.
// Hand the result to lease.New via Options.WAL; New performs recovery.
func OpenWAL(dir string) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lease: wal dir: %w", err)
	}
	w := &WAL{dir: dir, CompactEvery: 256, Logf: log.Printf}
	f, err := os.OpenFile(w.logPath(), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lease: wal log: %w", err)
	}
	w.f = f
	return w, nil
}

// load reads the snapshot and replays the log, returning the active
// acquire-shaped records and the highest lease sequence number observed
// anywhere (so the ledger resumes IDs without reuse).
func (w *WAL) load() (active []Record, maxSeq int64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	maxSeq = -1
	live := make(map[string]*Record)
	var order []string

	note := func(id string) {
		if seq := leaseSeq(id); seq > maxSeq {
			maxSeq = seq
		}
	}

	if data, err := os.ReadFile(w.snapPath()); err == nil {
		var snap walSnapshot
		if jerr := json.Unmarshal(data, &snap); jerr != nil {
			return nil, 0, fmt.Errorf("snapshot %s: %w", w.snapPath(), jerr)
		}
		if snap.NextSeq-1 > maxSeq {
			maxSeq = snap.NextSeq - 1
		}
		for i := range snap.Active {
			rec := snap.Active[i]
			note(rec.ID)
			live[rec.ID] = &rec
			order = append(order, rec.ID)
		}
	} else if !os.IsNotExist(err) {
		return nil, 0, err
	}

	// Replay the log segment. A torn final line (crash mid-append) ends
	// the replay; everything before it is intact because appends are
	// synced in order. The torn bytes are truncated away so the next
	// append starts a fresh line instead of merging into garbage.
	if _, err := w.f.Seek(0, 0); err != nil {
		return nil, 0, err
	}
	recs, goodLen, torn, err := ScanRecords(w.f)
	if err != nil {
		return nil, 0, err
	}
	if torn {
		if w.Logf != nil {
			w.Logf("lease: wal %s: torn trailing record (crash mid-append); recovering %d intact records and truncating to %d bytes",
				w.logPath(), len(recs), goodLen)
		}
		if err := w.f.Truncate(goodLen); err != nil {
			return nil, 0, fmt.Errorf("truncating torn wal tail: %w", err)
		}
	}
	w.records = 0
	for i := range recs {
		rec := recs[i]
		w.records++
		note(rec.ID)
		switch rec.Op {
		case OpAcquire, OpMigrate:
			// A migrate record is a full replacement of the lease's state;
			// replaying it over the original acquire (or over a snapshot
			// entry) lands on the post-handover placement. The order slice
			// dedups on first occurrence, so re-appending the ID is safe.
			r := rec
			live[rec.ID] = &r
			order = append(order, rec.ID)
		case OpBatch:
			// Every nested acquire of an intact batch line replays; a torn
			// batch line never reaches here (ScanRecords drops it whole).
			for i := range rec.Batch {
				sub := rec.Batch[i]
				note(sub.ID)
				live[sub.ID] = &sub
				order = append(order, sub.ID)
			}
		case OpRenew:
			if cur, ok := live[rec.ID]; ok {
				cur.ExpiryUnixMS = rec.ExpiryUnixMS
			}
		case OpRelease, OpExpire:
			delete(live, rec.ID)
		}
	}
	if _, err := w.f.Seek(0, 2); err != nil {
		return nil, 0, err
	}

	seen := make(map[string]bool, len(live))
	for _, id := range order {
		if rec, ok := live[id]; ok && !seen[id] {
			seen[id] = true
			active = append(active, *rec)
		}
	}
	w.maxSeq = maxSeq
	return active, maxSeq, nil
}

// append writes one record and syncs it to disk. The ledger calls this
// *before* Apply installs the record, so a crash never loses an
// acknowledged transition. The record is stamped with the context's
// trace ID, and the write+fsync is timed as a "wal.fsync" span — fsync is
// the one disk wait on the admission path, so it gets its own span.
func (w *WAL) append(ctx context.Context, rec Record) error {
	if rec.RequestID == "" {
		rec.RequestID = reqtrace.TraceID(ctx)
	}
	span := reqtrace.StartChild(ctx, "wal.fsync")
	defer span.End()
	err := w.appendRecord(rec)
	if err != nil {
		span.Fail(err)
	}
	return err
}

func (w *WAL) appendRecord(rec Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("wal closed")
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := w.f.Write(append(data, '\n')); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.records++
	if seq := leaseSeq(rec.ID); seq > w.maxSeq {
		w.maxSeq = seq
	}
	for i := range rec.Batch {
		if seq := leaseSeq(rec.Batch[i].ID); seq > w.maxSeq {
			w.maxSeq = seq
		}
	}
	return nil
}

// due reports whether the log segment has grown past the compaction
// threshold.
func (w *WAL) due() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f != nil && w.records >= w.CompactEvery
}

// compact writes the active set to the snapshot file (atomically, via a
// temp file and rename) and truncates the log segment.
func (w *WAL) compact(active []Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("wal closed")
	}
	nextSeq := w.maxSeq + 1
	for _, rec := range active {
		if seq := leaseSeq(rec.ID); seq >= nextSeq {
			nextSeq = seq + 1
		}
	}
	doc, err := json.Marshal(walSnapshot{Active: active, NextSeq: nextSeq})
	if err != nil {
		return err
	}
	tmp := w.snapPath() + ".tmp"
	if err := os.WriteFile(tmp, doc, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, w.snapPath()); err != nil {
		return err
	}
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return err
	}
	w.records = 0
	w.maxSeq = nextSeq - 1
	return nil
}

// close releases the log file handle.
func (w *WAL) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

package lease

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nodeselect/internal/testbed"
	"nodeselect/internal/topology"
)

// reopen closes a ledger and builds a fresh one over the same WAL dir,
// simulating a daemon restart.
func reopen(t *testing.T, l *Ledger, dir string, opts Options) *Ledger {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts.WAL = w
	l2, err := New(l.Graph(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return l2
}

func newWALLedger(t *testing.T, n int, clock *fakeClock) (*Ledger, string) {
	t.Helper()
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(starGraph(n), Options{Now: clock.Now, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	return l, dir
}

// starGraph is the WAL tests' stock topology.
func starGraph(n int) *topology.Graph { return testbed.Star(n, 100e6) }

// renamedStar builds a star whose node names differ from starGraph's, to
// exercise recovery against a changed topology.
func renamedStar(n int) *topology.Graph {
	g := topology.NewGraph()
	sw := g.AddNetworkNode("hub")
	for i := 0; i < n; i++ {
		id := g.AddComputeNode(fmt.Sprintf("host-%d", i+1))
		g.Connect(sw, id, 100e6, topology.LinkOpts{})
	}
	return g
}

// newSnap returns an idle snapshot of the ledger's graph.
func newSnap(l *Ledger) *topology.Snapshot { return topology.NewSnapshot(l.Graph()) }

func TestWALRestartRecoversActiveLeases(t *testing.T) {
	clock := newFakeClock()
	l, dir := newWALLedger(t, 8, clock)
	snap := newSnap(l)

	a, err := l.Acquire(context.Background(), snap, Demand{CPU: 0.3, BW: 20e6}, time.Minute, balancedPlace(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Acquire(context.Background(), snap, Demand{CPU: 0.2}, 2*time.Minute, balancedPlace(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Release(context.Background(), b.ID); err != nil {
		t.Fatal(err)
	}
	c, err := l.Acquire(context.Background(), snap, Demand{BW: 10e6}, 30*time.Second, balancedPlace(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	wantCPU, wantBW := l.Committed()

	l2 := reopen(t, l, dir, Options{Now: clock.Now})
	st := l2.Stats()
	if st.Recovered != 2 || st.RecoverySkipped != 0 {
		t.Fatalf("recovery stats %+v", st)
	}
	active := l2.Active()
	if len(active) != 2 || active[0].ID != a.ID || active[1].ID != c.ID {
		t.Fatalf("active after restart: %+v", active)
	}
	gotCPU, gotBW := l2.Committed()
	for i := range wantCPU {
		if math.Abs(gotCPU[i]-wantCPU[i]) > 1e-12 {
			t.Fatalf("node %d cpu %v != %v", i, gotCPU[i], wantCPU[i])
		}
	}
	for i := range wantBW {
		if math.Abs(gotBW[i]-wantBW[i]) > 1 {
			t.Fatalf("link %d bw %v != %v", i, gotBW[i], wantBW[i])
		}
	}
	// IDs continue past everything ever issued (b was released, its ID is
	// still burned).
	d, err := l2.Acquire(context.Background(), newSnap(l2), Demand{}, time.Minute, balancedPlace(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if seq := leaseSeq(d.ID); seq <= leaseSeq(c.ID) {
		t.Fatalf("new lease %s does not continue after %s", d.ID, c.ID)
	}
}

func TestWALRecoverySkipsExpired(t *testing.T) {
	clock := newFakeClock()
	l, dir := newWALLedger(t, 4, clock)
	snap := newSnap(l)
	if _, err := l.Acquire(context.Background(), snap, Demand{}, 10*time.Second, balancedPlace(1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Acquire(context.Background(), snap, Demand{}, 10*time.Minute, balancedPlace(1, 0)); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute) // first lease dead, second alive
	l2 := reopen(t, l, dir, Options{Now: clock.Now})
	if l2.Len() != 1 {
		t.Fatalf("recovered %d leases, want 1", l2.Len())
	}
	if st := l2.Stats(); st.RecoverySkipped != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWALRenewSurvivesRestart(t *testing.T) {
	clock := newFakeClock()
	l, dir := newWALLedger(t, 4, clock)
	info, err := l.Acquire(context.Background(), newSnap(l), Demand{}, 10*time.Second, balancedPlace(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Renew(context.Background(), info.ID, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute) // past the original expiry, within the renewal
	l2 := reopen(t, l, dir, Options{Now: clock.Now})
	got, ok := l2.Get(info.ID)
	if !ok {
		t.Fatal("renewed lease lost across restart")
	}
	if got.ExpiresAt.Sub(clock.Now()) != 9*time.Minute {
		t.Fatalf("recovered expiry %v", got.ExpiresAt)
	}
}

func TestWALCompaction(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.CompactEvery = 8
	l, err := New(starGraph(4), Options{Now: clock.Now, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	snap := newSnap(l)
	// Churn enough acquire+release pairs to cross the threshold.
	for i := 0; i < 10; i++ {
		info, err := l.Acquire(context.Background(), snap, Demand{}, time.Minute, balancedPlace(1, 0))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Release(context.Background(), info.ID); err != nil {
			t.Fatal(err)
		}
	}
	logData, err := os.ReadFile(filepath.Join(dir, "ledger.wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(logData) > 8*200 {
		t.Fatalf("log not compacted: %d bytes", len(logData))
	}
	if _, err := os.Stat(filepath.Join(dir, "ledger.snap.json")); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}
	// Keep one live lease, restart, verify it survives compaction + replay.
	live, err := l.Acquire(context.Background(), snap, Demand{CPU: 0.1}, time.Minute, balancedPlace(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	l2 := reopen(t, l, dir, Options{Now: clock.Now})
	if _, ok := l2.Get(live.ID); !ok {
		t.Fatal("live lease lost after compaction and restart")
	}
	if next, err := l2.Acquire(context.Background(), snap, Demand{}, time.Minute, balancedPlace(1, 0)); err != nil {
		t.Fatal(err)
	} else if leaseSeq(next.ID) <= leaseSeq(live.ID) {
		t.Fatalf("ID %s reused after compaction (last was %s)", next.ID, live.ID)
	}
}

func TestWALToleratesTornTail(t *testing.T) {
	clock := newFakeClock()
	l, dir := newWALLedger(t, 4, clock)
	if _, err := l.Acquire(context.Background(), newSnap(l), Demand{}, time.Minute, balancedPlace(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Close wrote a snapshot and truncated the log; corrupt a fresh log
	// tail to simulate a crash mid-append after more activity.
	logPath := filepath.Join(dir, "ledger.wal.jsonl")
	if err := os.WriteFile(logPath, []byte(`{"op":"acquire","id":"lease-9","nodes":["n-1"],"expiry_unix_ms":`), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := New(l.Graph(), Options{Now: clock.Now, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	// The torn record is dropped; the snapshot's lease survives.
	if l2.Len() != 1 {
		t.Fatalf("recovered %d leases", l2.Len())
	}
}

// TestWALCrashMidAppend simulates the canonical torn-tail crash: the
// process dies halfway through writing a record, leaving intact lines plus
// a partial one. Recovery must keep the intact prefix, warn, and truncate
// the file so the next append starts a fresh line instead of gluing JSON
// onto the torn bytes (which would corrupt the *following* restart too).
func TestWALCrashMidAppend(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	g := starGraph(4)
	expiry := clock.Now().Add(time.Hour).UnixMilli()
	intact := fmt.Sprintf(`{"op":"acquire","id":"lease-0","nodes":["n-1"],"cpu":0.2,"expiry_unix_ms":%d}`, expiry) + "\n"
	torn := `{"op":"acquire","id":"lease-1","nodes":["n-2"],"cpu":0.2,"expi`
	logPath := filepath.Join(dir, "ledger.wal.jsonl")
	if err := os.WriteFile(logPath, []byte(intact+torn), 0o644); err != nil {
		t.Fatal(err)
	}

	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	var warnings []string
	w.Logf = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	l, err := New(g, Options{Now: clock.Now, WAL: w})
	if err != nil {
		t.Fatalf("torn tail must not fail replay: %v", err)
	}
	if l.Len() != 1 {
		t.Fatalf("recovered %d leases, want the 1 intact record", l.Len())
	}
	if _, ok := l.Get("lease-0"); !ok {
		t.Fatal("intact prefix record lost")
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "torn") {
		t.Fatalf("want one torn-tail warning, got %q", warnings)
	}
	if fi, err := os.Stat(logPath); err != nil {
		t.Fatal(err)
	} else if fi.Size() != int64(len(intact)) {
		t.Fatalf("log is %d bytes after recovery, want truncation to the %d-byte intact prefix", fi.Size(), len(intact))
	}

	// Appends after recovery must land on their own lines: acquire again,
	// restart again, and both leases must survive the second replay.
	if _, err := l.Acquire(context.Background(), topology.NewSnapshot(g), Demand{CPU: 0.1}, time.Hour, balancedPlace(1, 0)); err != nil {
		t.Fatal(err)
	}
	l2 := reopen(t, l, dir, Options{Now: clock.Now})
	defer l2.Close()
	if l2.Len() != 2 {
		t.Fatalf("second restart recovered %d leases, want 2", l2.Len())
	}
}

func TestWALRecoverySkipsUnknownNodes(t *testing.T) {
	clock := newFakeClock()
	l, dir := newWALLedger(t, 4, clock)
	if _, err := l.Acquire(context.Background(), newSnap(l), Demand{CPU: 0.2}, time.Hour, balancedPlace(2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Restart against a *different* topology whose node names don't match.
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := New(renamedStar(4), Options{Now: clock.Now, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	if l2.Len() != 0 {
		t.Fatal("lease with unknown nodes was resurrected")
	}
	if st := l2.Stats(); st.RecoverySkipped != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestAcquireFailsWhenWALUnwritable(t *testing.T) {
	clock := newFakeClock()
	l, _ := newWALLedger(t, 4, clock)
	if err := l.Close(); err != nil { // closes the WAL file
		t.Fatal(err)
	}
	_, err := l.Acquire(context.Background(), newSnap(l), Demand{}, time.Minute, balancedPlace(1, 0))
	if err == nil {
		t.Fatal("acquire succeeded with a closed WAL")
	}
	if errors.Is(err, ErrRejected) {
		t.Fatalf("WAL failure misclassified as admission rejection: %v", err)
	}
	if l.Len() != 0 {
		t.Fatal("failed acquire left state behind")
	}
}

// TestRenewWALFailureKeepsExpiry: a renew whose WAL append fails must not
// extend the lease in memory. The extension never became durable, so a
// restart would hand back the old term the caller was told had failed to
// change.
func TestRenewWALFailureKeepsExpiry(t *testing.T) {
	clock := newFakeClock()
	w, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(starGraph(4), Options{Now: clock.Now, WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	info, err := l.Acquire(context.Background(), newSnap(l), Demand{CPU: 0.25}, time.Minute, balancedPlace(2, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	w.close() // every append now fails

	clock.Advance(10 * time.Second)
	if _, err := l.Renew(context.Background(), info.ID, 5*time.Minute); err == nil {
		t.Fatal("renew succeeded with an unwritable WAL")
	}
	got, ok := l.Get(info.ID)
	if !ok {
		t.Fatalf("lease %s vanished after a failed renew", info.ID)
	}
	if !got.ExpiresAt.Equal(info.ExpiresAt) {
		t.Fatalf("failed renew moved the in-memory expiry %v -> %v", info.ExpiresAt, got.ExpiresAt)
	}
}

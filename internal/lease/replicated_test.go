package lease

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"nodeselect/internal/topology"
)

// stubReplicator is a single-threaded stand-in for the quorum: proposals
// serialize through its mutex (that is the log order) and each committed
// record is applied to every attached ledger, leader first — exactly the
// contract replica.Node provides, minus the network.
type stubReplicator struct {
	mu      sync.Mutex
	targets []*Ledger
	log     []Record

	// delay sleeps before committing, simulating the quorum round-trip.
	delay time.Duration
	// fail, when set, rejects proposals without committing them.
	fail error
	// failAfterApply commits and applies, then reports an error anyway —
	// the "commit raced the timeout" case phase 3 must tolerate.
	failAfterApply bool
	// gate, when non-nil, is received from before each commit, letting a
	// test freeze a proposal mid-flight.
	gate chan struct{}
}

func (r *stubReplicator) Replicate(ctx context.Context, rec *Record) error {
	if d := r.delay; d > 0 {
		time.Sleep(d)
	}
	if r.gate != nil {
		<-r.gate
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail != nil && !r.failAfterApply {
		return r.fail
	}
	rec.Index = uint64(len(r.log) + 1)
	r.log = append(r.log, *rec)
	for _, t := range r.targets {
		t.Apply(*rec)
	}
	if r.failAfterApply {
		return errors.New("commit acked after deadline")
	}
	return r.fail
}

// newReplicatedPair builds a leader and follower ledger over the same star
// graph, wired through a stubReplicator.
func newReplicatedPair(t *testing.T, n int, clock *fakeClock) (leader, follower *Ledger, r *stubReplicator) {
	t.Helper()
	g := starGraph(n)
	var err error
	leader, err = New(g, Options{Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	follower, err = New(g, Options{Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	r = &stubReplicator{targets: []*Ledger{leader, follower}}
	leader.SetReplicator(r)
	// The follower is a replica too: its local sweeps must refuse to drop
	// (it can only propose, and proposals bounce with ErrNotLeader).
	follower.SetReplicator(&stubReplicator{fail: fmt.Errorf("%w (leader elsewhere)", ErrNotLeader)})
	return leader, follower, r
}

// assertConverged fails unless both ledgers hold identical active sets and
// committed capacity.
func assertConverged(t *testing.T, a, b *Ledger) {
	t.Helper()
	av, bv := a.Active(), b.Active()
	if len(av) != len(bv) {
		t.Fatalf("active sets diverged: %d vs %d leases", len(av), len(bv))
	}
	for i := range av {
		if av[i].ID != bv[i].ID || fmt.Sprint(av[i].Nodes) != fmt.Sprint(bv[i].Nodes) {
			t.Fatalf("lease %d diverged: %+v vs %+v", i, av[i], bv[i])
		}
	}
	acpu, abw := a.Committed()
	bcpu, bbw := b.Committed()
	for i := range acpu {
		if math.Abs(acpu[i]-bcpu[i]) > 1e-9 {
			t.Fatalf("node %d cpu diverged: %v vs %v", i, acpu[i], bcpu[i])
		}
	}
	for i := range abw {
		if math.Abs(abw[i]-bbw[i]) > 1e-3 {
			t.Fatalf("link %d bw diverged: %v vs %v", i, abw[i], bbw[i])
		}
	}
}

func TestReplicatedAcquireConverges(t *testing.T) {
	clock := newFakeClock()
	leader, follower, _ := newReplicatedPair(t, 6, clock)
	snap := topology.NewSnapshot(leader.Graph())

	info, err := leader.Acquire(context.Background(), snap, Demand{CPU: 0.3, BW: 10e6}, time.Minute, balancedPlace(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := follower.Get(info.ID); !ok {
		t.Fatal("committed acquire missing on follower")
	} else if fmt.Sprint(got.Nodes) != fmt.Sprint(info.Nodes) {
		t.Fatalf("follower placement %v != leader %v", got.Nodes, info.Nodes)
	}
	assertConverged(t, leader, follower)

	if _, err := leader.Renew(context.Background(), info.ID, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	fi, _ := follower.Get(info.ID)
	if want := clock.Now().Add(5 * time.Minute); !fi.ExpiresAt.Equal(want) {
		t.Fatalf("follower expiry %v, want %v", fi.ExpiresAt, want)
	}
	if err := leader.Release(context.Background(), info.ID); err != nil {
		t.Fatal(err)
	}
	if follower.Len() != 0 {
		t.Fatal("release did not reach follower")
	}
	assertConverged(t, leader, follower)
}

func TestReplicatedAcquireInvisibleUntilCommit(t *testing.T) {
	clock := newFakeClock()
	leader, _, r := newReplicatedPair(t, 4, clock)
	snap := topology.NewSnapshot(leader.Graph())
	r.gate = make(chan struct{})

	done := make(chan error, 1)
	go func() {
		_, err := leader.Acquire(context.Background(), snap, Demand{CPU: 0.5}, time.Minute, balancedPlace(2, 0))
		done <- err
	}()
	// Wait until the proposal is in flight (the pending debit is visible in
	// Committed but the lease must not be readable).
	deadline := time.After(2 * time.Second)
	for {
		cpu, _ := leader.Committed()
		var total float64
		for _, c := range cpu {
			total += c
		}
		if total > 0.9 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("pending debit never appeared")
		case <-time.After(time.Millisecond):
		}
	}
	if got := leader.Active(); len(got) != 0 {
		t.Fatalf("pending lease visible to readers: %+v", got)
	}
	close(r.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := leader.Active(); len(got) != 1 {
		t.Fatalf("committed lease not visible: %+v", got)
	}
}

func TestReplicatedAcquireRollsBackOnFailure(t *testing.T) {
	clock := newFakeClock()
	leader, follower, r := newReplicatedPair(t, 4, clock)
	snap := topology.NewSnapshot(leader.Graph())
	r.fail = fmt.Errorf("%w (leader is n-2)", ErrNotLeader)

	_, err := leader.Acquire(context.Background(), snap, Demand{CPU: 0.5}, time.Minute, balancedPlace(2, 0))
	if !errors.Is(err, ErrNotLeader) {
		t.Fatalf("err = %v, want ErrNotLeader", err)
	}
	if leader.Len() != 0 || follower.Len() != 0 {
		t.Fatal("failed proposal left a lease behind")
	}
	cpu, bw := leader.Committed()
	for i, c := range cpu {
		if c != 0 {
			t.Fatalf("node %d still debited %v after rollback", i, c)
		}
	}
	for i, b := range bw {
		if b != 0 {
			t.Fatalf("link %d still debited %v after rollback", i, b)
		}
	}
	// The burned ID must not be reissued even though the lease rolled back.
	r.fail = nil
	a, err := leader.Acquire(context.Background(), snap, Demand{}, time.Minute, balancedPlace(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if leaseSeq(a.ID) == 0 {
		t.Fatalf("rolled-back lease ID reused: %s", a.ID)
	}
}

func TestReplicatedAcquireLateCommitWins(t *testing.T) {
	clock := newFakeClock()
	leader, follower, r := newReplicatedPair(t, 4, clock)
	snap := topology.NewSnapshot(leader.Graph())
	r.failAfterApply = true

	// The record committed and applied everywhere, then the ack "timed out":
	// the replicated state is authoritative, so the caller still gets the
	// lease rather than an error contradicting every replica.
	info, err := leader.Acquire(context.Background(), snap, Demand{CPU: 0.2}, time.Minute, balancedPlace(2, 0))
	if err != nil {
		t.Fatalf("late commit must win: %v", err)
	}
	if _, ok := follower.Get(info.ID); !ok {
		t.Fatal("committed lease missing on follower")
	}
	assertConverged(t, leader, follower)
}

func TestReplicatedMigrateHandover(t *testing.T) {
	clock := newFakeClock()
	leader, follower, _ := newReplicatedPair(t, 6, clock)
	snap := topology.NewSnapshot(leader.Graph())

	info, err := leader.Acquire(context.Background(), snap, Demand{CPU: 0.4, BW: 5e6}, time.Minute, balancedPlace(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Force a different placement: exclude the current nodes.
	current := map[string]bool{}
	for _, n := range info.Nodes {
		current[n] = true
	}
	moved, err := leader.Migrate(context.Background(), snap, info.ID, func(_ context.Context, residual *topology.Snapshot, _ float64) ([]int, error) {
		g := residual.Graph
		var out []int
		for id := 0; id < g.NumNodes() && len(out) < 2; id++ {
			if g.Node(id).Kind == topology.Compute && !current[g.Node(id).Name] {
				out = append(out, id)
			}
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range moved.Nodes {
		if current[n] {
			t.Fatalf("migrate kept old node %s", n)
		}
	}
	assertConverged(t, leader, follower)
	st := follower.Stats()
	if st.Migrated != 1 {
		t.Fatalf("follower stats %+v", st)
	}
}

func TestReplicatedSweepProposesExpiry(t *testing.T) {
	clock := newFakeClock()
	leader, follower, r := newReplicatedPair(t, 4, clock)
	snap := topology.NewSnapshot(leader.Graph())
	if _, err := leader.Acquire(context.Background(), snap, Demand{CPU: 0.2}, time.Minute, balancedPlace(1, 0)); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute)
	// Reads never reclaim locally on a replicated ledger...
	if got := leader.Active(); len(got) != 1 {
		t.Fatalf("read-path sweep dropped a lease locally: %+v", got)
	}
	// ...the sweep proposes, and the commit reclaims everywhere.
	if n := leader.Sweep(); n != 1 {
		t.Fatalf("Sweep() = %d, want 1", n)
	}
	if leader.Len() != 0 || follower.Len() != 0 {
		t.Fatal("expiry did not reach both replicas")
	}
	last := r.log[len(r.log)-1]
	if last.Op != OpExpire || last.ExpiryUnixMS == 0 {
		t.Fatalf("expire record %+v lacks its expiry stamp", last)
	}
}

// TestApplyExpireVsRenewDeterminism drives the committed-log interleavings
// directly: whichever of renew/expire committed first must produce the
// same survivor set on every replica, decided by the expire record's
// stamp, never the local clock.
func TestApplyExpireVsRenewDeterminism(t *testing.T) {
	clock := newFakeClock()
	base := clock.Now()
	acq := Record{Op: OpAcquire, ID: "lease-0", Nodes: []string{"n-1"}, CPU: 0.1,
		CreatedUnixMS: base.UnixMilli(), ExpiryUnixMS: base.Add(time.Minute).UnixMilli()}
	renew := Record{Op: OpRenew, ID: "lease-0", ExpiryUnixMS: base.Add(10 * time.Minute).UnixMilli()}
	expire := Record{Op: OpExpire, ID: "lease-0", ExpiryUnixMS: base.Add(time.Minute).UnixMilli()}

	apply := func(recs ...Record) *Ledger {
		l, err := New(starGraph(4), Options{Now: clock.Now, Replicator: &stubReplicator{}})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			l.Apply(rec)
		}
		return l
	}

	// Renew committed first: the expire's stamp is stale, the lease lives.
	if l := apply(acq, renew, expire); l.Len() != 1 {
		t.Fatal("stale expire dropped a renewed lease")
	}
	// Expire committed first: the lease dies; the late renew is a no-op.
	if l := apply(acq, expire, renew); l.Len() != 0 {
		t.Fatal("expire with a matching stamp failed to drop")
	}
	// An expire whose stamp matches the current term drops it.
	if l := apply(acq, expire); l.Len() != 0 {
		t.Fatal("plain expire failed")
	}
}

// TestSweepSkipsInFlightHandover is the TTL-vs-migration race regression
// (run under -race): a lease goes overdue *while* its
// reserve-new-alongside-old handover awaits the quorum. The sweeper must
// not expire it mid-handover — doing so would strand the reserved new
// debits and then resurrect the lease when the migrate record commits.
func TestSweepSkipsInFlightHandover(t *testing.T) {
	g := starGraph(6)
	leader, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	follower, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := &stubReplicator{targets: []*Ledger{leader, follower}}
	leader.SetReplicator(r)
	follower.SetReplicator(&stubReplicator{fail: fmt.Errorf("%w (leader elsewhere)", ErrNotLeader)})
	snap := topology.NewSnapshot(g)

	info, err := leader.Acquire(context.Background(), snap, Demand{CPU: 0.4, BW: 5e6}, 60*time.Millisecond, balancedPlace(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Quorum round-trips now take longer than the lease's remaining TTL, so
	// the handover is guaranteed to be in flight when the lease goes due.
	r.delay = 150 * time.Millisecond
	stop := leader.StartSweeper(5 * time.Millisecond)
	defer stop()

	current := map[string]bool{}
	for _, n := range info.Nodes {
		current[n] = true
	}
	moved, err := leader.Migrate(context.Background(), snap, info.ID, func(_ context.Context, residual *topology.Snapshot, _ float64) ([]int, error) {
		var out []int
		for id := 0; id < g.NumNodes() && len(out) < 2; id++ {
			if g.Node(id).Kind == topology.Compute && !current[g.Node(id).Name] {
				out = append(out, id)
			}
		}
		return out, nil
	})
	if err != nil {
		t.Fatalf("handover lost to the TTL sweep: %v", err)
	}
	if got, ok := leader.Get(info.ID); !ok {
		t.Fatal("lease expired despite in-flight handover")
	} else if fmt.Sprint(got.Nodes) != fmt.Sprint(moved.Nodes) {
		t.Fatalf("post-handover nodes %v, want %v", got.Nodes, moved.Nodes)
	}
	assertConverged(t, leader, follower)

	// Once the handover has committed the lease is fair game: the sweeper
	// reclaims it (it has been overdue all along) on both replicas, exactly
	// once.
	deadline := time.After(2 * time.Second)
	for leader.Len() != 0 || follower.Len() != 0 {
		select {
		case <-deadline:
			t.Fatalf("overdue lease never reclaimed post-handover (leader %d, follower %d)", leader.Len(), follower.Len())
		case <-time.After(5 * time.Millisecond):
		}
	}
	st := leader.Stats()
	if st.Expired != 1 || st.Migrated != 1 {
		t.Fatalf("stats %+v: want exactly one expiry after exactly one migration", st)
	}
	cpu, bw := leader.Committed()
	for i, c := range cpu {
		if c != 0 {
			t.Fatalf("node %d leaked %v cpu", i, c)
		}
	}
	for i, b := range bw {
		if b != 0 {
			t.Fatalf("link %d leaked %v bw", i, b)
		}
	}
}

func TestReplicatedLedgerRefusesWAL(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if _, err := New(starGraph(2), Options{WAL: w, Replicator: &stubReplicator{}}); err == nil {
		t.Fatal("WAL + Replicator must be rejected")
	}
}

// TestReplicatedBatchIsOneProposal: on a replicated ledger a batch of n
// admissions is one Replicate call and one log entry carrying every
// accepted acquire, and the follower converges on all of them.
func TestReplicatedBatchIsOneProposal(t *testing.T) {
	clock := newFakeClock()
	leader, follower, r := newReplicatedPair(t, 8, clock)
	snap := topology.NewSnapshot(leader.Graph())
	items := make([]BatchItem, 4)
	for i := range items {
		items[i] = BatchItem{Demand: Demand{CPU: 0.25, BW: 5e6}, TTL: time.Minute,
			Place: balancedPlace(2, 0.25), Key: fmt.Sprintf("k%d", i), Seq: uint64(i)}
	}
	for i, res := range leader.AcquireBatch(context.Background(), snap, items) {
		if res.Err != nil {
			t.Fatalf("item %d: %v", i, res.Err)
		}
	}
	if len(r.log) != 1 {
		t.Fatalf("a batch of %d made %d log entries, want 1", len(items), len(r.log))
	}
	if e := r.log[0]; e.Op != OpBatch || len(e.Batch) != len(items) {
		t.Fatalf("log entry is %q with %d nested records, want %q with %d", e.Op, len(e.Batch), OpBatch, len(items))
	}
	for name, l := range map[string]*Ledger{"leader": leader, "follower": follower} {
		if st := l.Stats(); st.Batches != 1 || st.Acquired != int64(len(items)) {
			t.Fatalf("%s stats %+v, want Batches=1 Acquired=%d", name, st, len(items))
		}
	}
	assertConverged(t, leader, follower)
}

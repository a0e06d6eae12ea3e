package rebalance

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"nodeselect/internal/core"
	"nodeselect/internal/lease"
	"nodeselect/internal/testbed"
	"nodeselect/internal/topology"
)

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

// fixture is a star ledger with one shaped lease pinned-by-placement on
// nodes 1,2 and a snapshot the test can load.
type fixture struct {
	clock  *fakeClock
	ledger *lease.Ledger
	snap   *topology.Snapshot
	info   lease.Info
}

func place(nodes ...int) lease.PlaceFunc {
	return func(context.Context, *topology.Snapshot, float64) ([]int, error) {
		return append([]int(nil), nodes...), nil
	}
}

func newFixture(t *testing.T, n int) *fixture {
	t.Helper()
	clock := newFakeClock()
	g := testbed.Star(n, 100e6)
	l, err := lease.New(g, lease.Options{Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	shape := &lease.Shape{M: 2, Algo: core.AlgoBalanced}
	info, err := l.AcquireShaped(context.Background(), topology.NewSnapshot(g), lease.Demand{CPU: 0.1}, time.Hour, shape, place(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{clock: clock, ledger: l, snap: topology.NewSnapshot(g), info: info}
}

// loadCurrent makes the lease's current nodes look heavily loaded, so the
// advisor recommends moving to the idle remainder of the star.
func (f *fixture) loadCurrent() {
	f.snap.SetLoad(1, 4)
	f.snap.SetLoad(2, 4)
}

func TestTickDebouncesThenProposes(t *testing.T) {
	f := newFixture(t, 6)
	c := New(f.ledger, Policy{MinGain: 0.1, ConfirmEpochs: 2, Now: f.clock.Now}, nil)
	var events []Event
	c.SetOnEvent(func(ev Event) { events = append(events, ev) })
	f.loadCurrent()

	v := f.ledger.Version()
	if n := c.Tick(context.Background(), f.snap, Epoch{Polls: 1, Ledger: v}, false); n != 0 {
		t.Fatalf("first advice epoch raised %d proposals, want 0 (debounce)", n)
	}
	if got := c.m.suppressed.With("debounce").Value(); got != 1 {
		t.Fatalf("debounce suppressions = %v, want 1", got)
	}
	// Same epoch again: a no-op, must not advance the streak.
	if n := c.Tick(context.Background(), f.snap, Epoch{Polls: 1, Ledger: v}, false); n != 0 {
		t.Fatal("same-epoch tick must be a no-op")
	}
	if n := c.Tick(context.Background(), f.snap, Epoch{Polls: 2, Ledger: v}, false); n != 1 {
		t.Fatal("second consecutive advice epoch must raise the proposal")
	}

	props := c.Proposals()
	if len(props) != 1 {
		t.Fatalf("pending = %v", props)
	}
	p := props[0]
	if p.Lease != f.info.ID {
		t.Fatalf("proposal lease = %q, want %q", p.Lease, f.info.ID)
	}
	if len(p.From) != 2 || p.From[0] != "n-1" || p.From[1] != "n-2" {
		t.Fatalf("from = %v", p.From)
	}
	for _, name := range p.To {
		if name == "n-1" || name == "n-2" {
			t.Fatalf("to = %v still uses a loaded node", p.To)
		}
	}
	if p.Gain <= 0.1 || p.CandidateScore <= p.CurrentScore {
		t.Fatalf("proposal scores: gain=%v current=%v candidate=%v", p.Gain, p.CurrentScore, p.CandidateScore)
	}
	if p.Confirmations != 2 {
		t.Fatalf("confirmations = %d, want 2", p.Confirmations)
	}
	if len(events) != 1 || events[0].Op != "propose" {
		t.Fatalf("events = %+v, want one propose", events)
	}
	// Re-confirming epochs update the proposal without recounting it.
	c.Tick(context.Background(), f.snap, Epoch{Polls: 3, Ledger: v}, false)
	if got := c.m.proposals.Value(); got != 1 {
		t.Fatalf("proposals_total = %v after re-confirmation, want 1", got)
	}
}

func TestDegradedTickSuppressesEvaluation(t *testing.T) {
	f := newFixture(t, 6)
	c := New(f.ledger, Policy{ConfirmEpochs: 1, Now: f.clock.Now}, nil)
	f.loadCurrent()

	v := f.ledger.Version()
	for polls := 1; polls <= 3; polls++ {
		if n := c.Tick(context.Background(), f.snap, Epoch{Polls: polls, Ledger: v}, true); n != 0 {
			t.Fatal("degraded tick must not raise proposals")
		}
	}
	if got := c.Metrics().SkippedDegraded(); got != 3 {
		t.Fatalf("rebalance_skipped_degraded_total = %v, want 3", got)
	}
	if got := c.m.evaluations.Value(); got != 0 {
		t.Fatalf("evaluations = %v during degraded epochs, want 0", got)
	}
	// Health restored: the next epoch evaluates and proposes.
	if n := c.Tick(context.Background(), f.snap, Epoch{Polls: 4, Ledger: v}, false); n != 1 {
		t.Fatal("healthy tick after degradation must propose")
	}
}

func TestAdviceLapseClearsProposal(t *testing.T) {
	f := newFixture(t, 6)
	c := New(f.ledger, Policy{ConfirmEpochs: 1, MinGain: 0.1, Now: f.clock.Now}, nil)
	f.loadCurrent()

	v := f.ledger.Version()
	if n := c.Tick(context.Background(), f.snap, Epoch{Polls: 1, Ledger: v}, false); n != 1 {
		t.Fatal("want a proposal while the placement is loaded")
	}
	// Load moves off the current nodes onto everything else: staying is
	// now best, and the stale proposal must not survive.
	f.snap.SetLoad(1, 0)
	f.snap.SetLoad(2, 0)
	for id := 3; id <= 6; id++ {
		f.snap.SetLoad(id, 4)
	}
	c.Tick(context.Background(), f.snap, Epoch{Polls: 2, Ledger: v}, false)
	if props := c.Proposals(); len(props) != 0 {
		t.Fatalf("lapsed advice left proposals pending: %v", props)
	}
}

func TestBudgetLimitsProposalsPerEpoch(t *testing.T) {
	clock := newFakeClock()
	g := testbed.Star(8, 100e6)
	l, err := lease.New(g, lease.Options{Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	idle := topology.NewSnapshot(g)
	shape := &lease.Shape{M: 2, Algo: core.AlgoBalanced}
	if _, err := l.AcquireShaped(context.Background(), idle, lease.Demand{CPU: 0.1}, time.Hour, shape, place(1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AcquireShaped(context.Background(), idle, lease.Demand{CPU: 0.1}, time.Hour, shape, place(3, 4)); err != nil {
		t.Fatal(err)
	}

	snap := topology.NewSnapshot(g)
	for id := 1; id <= 4; id++ {
		snap.SetLoad(id, 4) // both leases badly placed
	}
	c := New(l, Policy{ConfirmEpochs: 1, MaxPerEpoch: 1, MinGain: 0.1, Now: clock.Now}, nil)
	if n := c.Tick(context.Background(), snap, Epoch{Polls: 1, Ledger: l.Version()}, false); n != 1 {
		t.Fatalf("raised %d proposals under a budget of 1", n)
	}
	if got := c.m.suppressed.With("budget").Value(); got != 1 {
		t.Fatalf("budget suppressions = %v, want 1", got)
	}
	// Next epoch the budget resets and the second lease gets its turn.
	if n := c.Tick(context.Background(), snap, Epoch{Polls: 2, Ledger: l.Version()}, false); n != 1 {
		t.Fatal("budget must reset on the next epoch")
	}
	if len(c.Proposals()) != 2 {
		t.Fatalf("pending = %v, want both leases proposed", c.Proposals())
	}
}

func TestAutoAppliesAndCoolsDown(t *testing.T) {
	f := newFixture(t, 6)
	c := New(f.ledger, Policy{
		ConfirmEpochs: 1, MinGain: 0.1, Auto: true,
		Cooldown: time.Minute, Now: f.clock.Now,
	}, nil)
	var events []Event
	c.SetOnEvent(func(ev Event) { events = append(events, ev) })
	f.loadCurrent()

	c.Tick(context.Background(), f.snap, Epoch{Polls: 1, Ledger: f.ledger.Version()}, false)
	if got := c.m.applied.Value(); got != 1 {
		t.Fatalf("applied = %v, want 1 in auto mode", got)
	}
	moved, ok := f.ledger.Get(f.info.ID)
	if !ok {
		t.Fatal("lease vanished")
	}
	for _, name := range moved.Nodes {
		if name == "n-1" || name == "n-2" {
			t.Fatalf("auto apply left the lease on %v", moved.Nodes)
		}
	}
	if len(c.Proposals()) != 0 {
		t.Fatal("applied proposal still pending")
	}
	if len(events) != 2 || events[0].Op != "propose" || events[1].Op != "apply" {
		t.Fatalf("events = %+v, want propose then apply", events)
	}
	if st := f.ledger.Stats(); st.Migrated != 1 {
		t.Fatalf("ledger stats = %+v, want Migrated=1", st)
	}

	// Immediately loading the new nodes cannot bounce the lease back:
	// cooldown suppresses until the quiet period elapses.
	for _, name := range moved.Nodes {
		f.snap.SetLoad(f.ledger.Graph().NodeByName(name), 4)
	}
	f.snap.SetLoad(1, 0)
	f.snap.SetLoad(2, 0)
	c.Tick(context.Background(), f.snap, Epoch{Polls: 2, Ledger: f.ledger.Version()}, false)
	if got := c.m.suppressed.With("cooldown").Value(); got != 1 {
		t.Fatalf("cooldown suppressions = %v, want 1", got)
	}
	if st := f.ledger.Stats(); st.Migrated != 1 {
		t.Fatal("cooldown failed to prevent a bounce-back migration")
	}
	// After the cooldown, the sustained advice goes through again.
	f.clock.Advance(2 * time.Minute)
	c.Tick(context.Background(), f.snap, Epoch{Polls: 3, Ledger: f.ledger.Version()}, false)
	if st := f.ledger.Stats(); st.Migrated != 2 {
		t.Fatalf("ledger stats = %+v, want the post-cooldown migration", st)
	}
}

// TestCooldownEndsWithLeaseOrDeadline: a handover's cooldown entry goes
// when its lease goes, and when its deadline passes, so an auto controller
// does not keep one timestamp for every lease it ever moved.
func TestCooldownEndsWithLeaseOrDeadline(t *testing.T) {
	const n = 3
	ctx := context.Background()
	f := newFixture(t, 10)
	ids := []string{f.info.ID}
	for len(ids) < n {
		info, err := f.ledger.AcquireShaped(ctx, f.snap, lease.Demand{CPU: 0.1}, time.Hour,
			&lease.Shape{M: 2, Algo: core.AlgoBalanced}, place(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	c := New(f.ledger, Policy{
		ConfirmEpochs: 1, MinGain: 0.1, Auto: true, MaxPerEpoch: n,
		Cooldown: time.Minute, Now: f.clock.Now,
	}, nil)
	f.loadCurrent()
	c.Tick(ctx, f.snap, Epoch{Polls: 1, Ledger: f.ledger.Version()}, false)
	if got := c.m.applied.Value(); got != n {
		t.Fatalf("applied = %v, want %d", got, n)
	}

	// Release all but the last lease inside the cooldown: only the live
	// lease keeps its entry.
	for _, id := range ids[:n-1] {
		if err := f.ledger.Release(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	c.Tick(ctx, f.snap, Epoch{Polls: 2, Ledger: f.ledger.Version()}, false)
	if len(c.cooldown) != 1 {
		t.Fatalf("%d cooldown entries after releasing %d of %d leases, want 1", len(c.cooldown), n-1, n)
	}
	if _, ok := c.cooldown[ids[n-1]]; !ok {
		t.Fatalf("live lease %s lost its cooldown early", ids[n-1])
	}

	// Past the deadline the live lease's entry goes too.
	f.clock.Advance(2 * time.Minute)
	c.Tick(ctx, f.snap, Epoch{Polls: 3, Ledger: f.ledger.Version()}, false)
	if len(c.cooldown) != 0 {
		t.Fatalf("%d cooldown entries past the deadline, want 0", len(c.cooldown))
	}
}

func TestApplyAdvisoryHandover(t *testing.T) {
	f := newFixture(t, 6)
	c := New(f.ledger, Policy{ConfirmEpochs: 1, MinGain: 0.1, Now: f.clock.Now}, nil)
	f.loadCurrent()
	c.Tick(context.Background(), f.snap, Epoch{Polls: 1, Ledger: f.ledger.Version()}, false)

	if _, err := c.Apply(context.Background(), f.snap, "lease-404"); !errors.Is(err, lease.ErrNotFound) {
		t.Fatalf("apply of unknown lease: err = %v, want ErrNotFound", err)
	}
	info, err := c.Apply(context.Background(), f.snap, f.info.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range info.Nodes {
		if name == "n-1" || name == "n-2" {
			t.Fatalf("apply left the lease on %v", info.Nodes)
		}
	}
	if len(c.Proposals()) != 0 {
		t.Fatal("applied proposal still pending")
	}
	// Applying twice: the proposal is gone.
	if _, err := c.Apply(context.Background(), f.snap, f.info.ID); !errors.Is(err, lease.ErrNotFound) {
		t.Fatalf("second apply: err = %v, want ErrNotFound", err)
	}
}

func TestApplyRejectedKeepsProposalPending(t *testing.T) {
	f := newFixture(t, 4) // star of 4: current {1,2}, only {3,4} left
	c := New(f.ledger, Policy{ConfirmEpochs: 1, MinGain: 0.1, Now: f.clock.Now}, nil)
	f.loadCurrent()
	if n := c.Tick(context.Background(), f.snap, Epoch{Polls: 1, Ledger: f.ledger.Version()}, false); n != 1 {
		t.Fatal("want a proposal")
	}
	// A competitor takes nearly all CPU on the proposed destination before
	// the operator applies: the handover's at-apply-time admission check
	// must reject, and the proposal survives for when capacity returns.
	if _, err := f.ledger.Acquire(context.Background(), f.snap, lease.Demand{CPU: 0.95}, time.Hour, place(3, 4)); err != nil {
		t.Fatal(err)
	}
	_, err := c.Apply(context.Background(), f.snap, f.info.ID)
	var adm *lease.AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("apply onto reserved nodes: err = %v, want AdmissionError", err)
	}
	if got := c.m.applyFailures.Value(); got != 1 {
		t.Fatalf("apply failures = %v, want 1", got)
	}
	if len(c.Proposals()) != 1 {
		t.Fatal("rejected apply must leave the proposal pending")
	}
	cur, _ := f.ledger.Get(f.info.ID)
	if len(cur.Nodes) != 2 || cur.Nodes[0] != "n-1" || cur.Nodes[1] != "n-2" {
		t.Fatalf("lease moved despite rejection: %v", cur.Nodes)
	}
}

func TestUnshapedLeaseNeverRebalanced(t *testing.T) {
	clock := newFakeClock()
	g := testbed.Star(6, 100e6)
	l, err := lease.New(g, lease.Options{Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Acquire(context.Background(), topology.NewSnapshot(g), lease.Demand{CPU: 0.1}, time.Hour, place(1, 2)); err != nil {
		t.Fatal(err)
	}
	snap := topology.NewSnapshot(g)
	snap.SetLoad(1, 4)
	snap.SetLoad(2, 4)
	c := New(l, Policy{ConfirmEpochs: 1, Now: clock.Now}, nil)
	if n := c.Tick(context.Background(), snap, Epoch{Polls: 1, Ledger: l.Version()}, false); n != 0 {
		t.Fatal("a lease without a recorded shape must never be proposed")
	}
	if got := c.m.evaluations.Value(); got != 0 {
		t.Fatalf("evaluations = %v for a shapeless ledger, want 0", got)
	}
}

func TestReleasedLeaseDropsControllerState(t *testing.T) {
	f := newFixture(t, 6)
	c := New(f.ledger, Policy{ConfirmEpochs: 1, MinGain: 0.1, Now: f.clock.Now}, nil)
	f.loadCurrent()
	c.Tick(context.Background(), f.snap, Epoch{Polls: 1, Ledger: f.ledger.Version()}, false)
	if len(c.Proposals()) != 1 {
		t.Fatal("want a proposal")
	}
	if err := f.ledger.Release(context.Background(), f.info.ID); err != nil {
		t.Fatal(err)
	}
	c.Tick(context.Background(), f.snap, Epoch{Polls: 2, Ledger: f.ledger.Version()}, false)
	if props := c.Proposals(); len(props) != 0 {
		t.Fatalf("released lease left proposals pending: %v", props)
	}
}

// Close must block until an in-flight handover completes: once it returns,
// no reserve-new half of a migration can reach the ledger, so a daemon may
// safely flush and close the ledger afterwards. Run under -race.
func TestCloseBlocksUntilHandoverCompletes(t *testing.T) {
	f := newFixture(t, 6)
	c := New(f.ledger, Policy{ConfirmEpochs: 1, MinGain: 0.1, Now: f.clock.Now}, nil)
	f.loadCurrent()
	if n := c.Tick(context.Background(), f.snap, Epoch{Polls: 1, Ledger: f.ledger.Version()}, false); n != 1 {
		t.Fatal("want a proposal")
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	c.testHookBeforeMigrate = func() {
		close(entered)
		<-release
	}
	applyDone := make(chan error, 1)
	go func() {
		_, err := c.Apply(context.Background(), f.snap, f.info.ID)
		applyDone <- err
	}()
	<-entered

	closeDone := make(chan struct{})
	go func() {
		c.Close()
		close(closeDone)
	}()
	select {
	case <-closeDone:
		t.Fatal("Close returned while a handover was in flight")
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	if err := <-applyDone; err != nil {
		t.Fatalf("handover failed: %v", err)
	}
	<-closeDone

	// The controller is stopped: the ledger can now flush safely, and no
	// further controller action can touch it.
	if err := f.ledger.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Apply(context.Background(), f.snap, f.info.ID); !errors.Is(err, lease.ErrClosed) {
		t.Fatalf("apply after Close: err = %v, want ErrClosed", err)
	}
	if n := c.Tick(context.Background(), f.snap, Epoch{Polls: 2, Ledger: 99}, false); n != 0 {
		t.Fatal("tick after Close must be a no-op")
	}
	if st := f.ledger.Stats(); st.Migrated != 1 {
		t.Fatalf("stats = %+v, want exactly the one pre-close migration", st)
	}
}

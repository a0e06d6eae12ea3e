// Package rebalance implements the continuous re-placement controller:
// the running-service form of the paper's §3.3 "dynamic migration"
// discussion. On every collector epoch (the same poll-count +
// ledger-version pair the plan cache keys on) the controller re-scores
// each active lease's placement with core.AdviseMigration against the
// *residual* snapshot excluding the lease's own reservation — the paper's
// self-load caveat: an application deciding whether to move must not count
// its own load as competition — and turns sustained, worthwhile advice
// into migration proposals.
//
// Advice becomes a proposal only with hysteresis, because network
// measurements oscillate and migration is not free:
//
//   - MinGain/MigrationCost (core.MigrationPolicy) gate on the size of the
//     improvement;
//   - the advice must repeat for ConfirmEpochs consecutive epochs
//     (debounce) before a proposal is raised;
//   - a lease that just migrated is left alone for Cooldown;
//   - at most MaxPerEpoch proposals are raised (advisory) or applied
//     (auto) per epoch.
//
// Applying a proposal is an atomic reserve-new-then-release-old handover
// through the ledger (lease.Ledger.Migrate): the new set is re-checked for
// admission alongside the old at apply time, so a proposal gone stale can
// reject but never oversubscribe. Degraded snapshots (part of the fleet
// served from last-known-good data) suppress evaluation entirely — no
// migration decisions on stale measurements.
package rebalance

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"nodeselect/internal/core"
	"nodeselect/internal/lease"
	"nodeselect/internal/metrics"
	"nodeselect/internal/reqtrace"
	"nodeselect/internal/topology"
)

// Policy tunes the controller.
type Policy struct {
	// MinGain is the minimum relative minresource improvement that
	// justifies a move (e.g. 0.25 = 25% better); zero moves on any strict
	// improvement. MigrationCost is an absolute minresource handicap
	// subtracted from the candidate. Both feed core.MigrationPolicy.
	MinGain       float64
	MigrationCost float64
	// Algorithm selects candidate placements for leases whose shape does
	// not name a usable algorithm (default balanced). A lease's own
	// algorithm wins when it is deterministic; random/static shapes fall
	// back to this, since re-running a blind selector says nothing about
	// whether conditions improved.
	Algorithm string
	// ConfirmEpochs is how many consecutive epochs the advisor must
	// recommend moving before a proposal is raised (default 2; 1 proposes
	// immediately).
	ConfirmEpochs int
	// Cooldown is the per-lease quiet period after a handover (default
	// 1m): a lease that just moved is not re-evaluated until it elapses.
	Cooldown time.Duration
	// MaxPerEpoch budgets how many proposals may be raised (advisory
	// mode) or applied (auto mode) in one epoch (default 1): mass
	// migrations on one measurement sample are exactly the oscillation
	// hysteresis exists to prevent.
	MaxPerEpoch int
	// Auto applies proposals as soon as they are raised; off, proposals
	// wait for an operator's POST /migrations/{lease}/apply.
	Auto bool
	// Now is the clock (default time.Now); injectable for tests and
	// sim-driven experiments.
	Now func() time.Time
}

func (p Policy) withDefaults() Policy {
	if p.Algorithm == "" {
		p.Algorithm = core.AlgoBalanced
	}
	if p.ConfirmEpochs < 1 {
		p.ConfirmEpochs = 2
	}
	if p.Cooldown <= 0 {
		p.Cooldown = time.Minute
	}
	if p.MaxPerEpoch < 1 {
		p.MaxPerEpoch = 1
	}
	if p.Now == nil {
		p.Now = time.Now
	}
	return p
}

// Epoch identifies one evaluation round: the collector poll count plus the
// ledger version — the same pair the service's plan cache keys on. The
// controller evaluates at most once per distinct epoch, so repeated ticks
// between polls are no-ops and every handover (which bumps the ledger
// version) forces re-evaluation against the new reservation state.
type Epoch struct {
	Polls  int
	Ledger uint64
}

// Proposal is one pending migration recommendation.
type Proposal struct {
	// Lease names the lease to move.
	Lease string `json:"lease"`
	// From and To are the current and recommended node sets (names,
	// sorted).
	From []string `json:"from"`
	To   []string `json:"to"`
	// Gain is the relative minresource improvement of To over From after
	// the migration-cost handicap.
	Gain float64 `json:"gain"`
	// CurrentScore and CandidateScore are the two placements' minresource
	// under the background-only (self-load-excluded) residual view.
	CurrentScore   float64 `json:"current_score"`
	CandidateScore float64 `json:"candidate_score"`
	// Bottleneck names the candidate placement's binding communication
	// bottleneck link ("a--b"), when it has one.
	Bottleneck string `json:"bottleneck,omitempty"`
	// Confirmations is how many consecutive epochs the advisor recommended
	// this move before (and since) the proposal was raised.
	Confirmations int `json:"confirmations"`
	// Epoch is the evaluation round that (last) confirmed the proposal.
	Epoch Epoch `json:"epoch"`
}

// Event is one controller action, delivered to the observer installed
// with SetOnEvent: op is "propose", "apply", or "apply_failed".
type Event struct {
	Op       string
	Proposal Proposal
	// Err is set on apply_failed.
	Err error
	// RequestID is the trace ID of the request (or poll) that drove the
	// action — empty for untraced ticks.
	RequestID string
}

// Metrics is the controller's instrument set.
type Metrics struct {
	// rebalance_ticks_total: evaluation rounds entered (including no-op
	// same-epoch ticks).
	ticks *metrics.Counter
	// rebalance_skipped_degraded_total: epochs skipped because the
	// snapshot was degraded — no migration decisions on stale data.
	skippedDegraded *metrics.Counter
	// rebalance_evaluations_total: lease placements re-scored.
	evaluations *metrics.Counter
	// rebalance_proposals_total: proposals raised.
	proposals *metrics.Counter
	// rebalance_applied_total / rebalance_apply_failures_total: handovers
	// executed / attempted and rejected.
	applied       *metrics.Counter
	applyFailures *metrics.Counter
	// rebalance_suppressed_total{reason}: advice withheld by hysteresis —
	// debounce | cooldown | budget.
	suppressed *metrics.CounterVec
}

func newMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		ticks: reg.NewCounter("rebalance_ticks_total",
			"Rebalance evaluation rounds entered."),
		skippedDegraded: reg.NewCounter("rebalance_skipped_degraded_total",
			"Epochs skipped because the measurement snapshot was degraded."),
		evaluations: reg.NewCounter("rebalance_evaluations_total",
			"Lease placements re-scored against the residual snapshot."),
		proposals: reg.NewCounter("rebalance_proposals_total",
			"Migration proposals raised."),
		applied: reg.NewCounter("rebalance_applied_total",
			"Migration handovers executed through the ledger."),
		applyFailures: reg.NewCounter("rebalance_apply_failures_total",
			"Migration handovers attempted and rejected."),
		suppressed: reg.NewCounterVec("rebalance_suppressed_total",
			"Migration advice withheld by hysteresis, by reason.", "reason"),
	}
}

// SkippedDegraded reports how many degraded epochs were skipped (test and
// introspection hook).
func (m *Metrics) SkippedDegraded() float64 { return m.skippedDegraded.Value() }

// streak tracks consecutive-epoch advice for one lease. The streak only
// counts epochs recommending the *same* destination: advice that keeps
// changing its mind is oscillation, not a trend.
type streak struct {
	to    []string
	count int
}

// Controller is the re-placement loop's state. Create with New, drive it
// with Tick on every poll, and stop it with Close — Close blocks until an
// in-flight evaluation or handover finishes, which is what lets a daemon
// order "stop the controller" strictly before "flush the ledger".
type Controller struct {
	ledger *lease.Ledger
	policy Policy
	m      *Metrics

	mu        sync.Mutex
	closed    bool
	lastEpoch Epoch
	started   bool // lastEpoch is only meaningful after the first tick
	streaks   map[string]*streak
	pending   map[string]*Proposal
	cooldown  map[string]time.Time
	onEvent   func(Event)

	// testHookBeforeMigrate, when set, runs while holding c.mu just before
	// the ledger handover — the window the shutdown-during-handover test
	// widens.
	testHookBeforeMigrate func()
}

// New builds a controller over the ledger, registering its metrics on reg
// (nil creates a private registry).
func New(ledger *lease.Ledger, policy Policy, reg *metrics.Registry) *Controller {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c := &Controller{
		ledger:   ledger,
		policy:   policy.withDefaults(),
		m:        newMetrics(reg),
		streaks:  make(map[string]*streak),
		pending:  make(map[string]*Proposal),
		cooldown: make(map[string]time.Time),
	}
	reg.NewGaugeFunc("rebalance_pending",
		"Migration proposals awaiting application.",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.pending))
		})
	return c
}

// Metrics returns the controller's instrument set.
func (c *Controller) Metrics() *Metrics { return c.m }

// SetOnEvent installs an observer for controller actions, called with the
// controller locked — keep it cheap (audit appends, metric increments).
// Install before the first Tick.
func (c *Controller) SetOnEvent(fn func(Event)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onEvent = fn
}

func (c *Controller) event(ev Event) {
	if c.onEvent != nil {
		c.onEvent(ev)
	}
}

// Auto reports whether the controller applies proposals itself.
func (c *Controller) Auto() bool { return c.policy.Auto }

// Proposals returns the pending proposals, ordered by lease ID.
func (c *Controller) Proposals() []Proposal {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Proposal, 0, len(c.pending))
	for _, p := range c.pending {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lease < out[j].Lease })
	return out
}

// Close stops the controller: subsequent Ticks and Applies are no-ops. It
// takes the controller's mutex, so it blocks until an in-flight tick or
// handover completes — after Close returns, no reserve-new half of a
// migration can reach the ledger.
func (c *Controller) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
}

// Tick runs one evaluation round against snap under the given epoch.
// Same-epoch ticks are no-ops; degraded ticks consume the epoch without
// evaluating (no migration decisions on stale measurements). Returns the
// number of proposals raised this round. The context carries the driving
// poll's trace; the round is timed as a "rebalance.tick" span.
func (c *Controller) Tick(ctx context.Context, snap *topology.Snapshot, epoch Epoch, degraded bool) int {
	ctx, span := reqtrace.StartSpan(ctx, "rebalance.tick")
	defer span.End()
	raised := c.tick(ctx, snap, epoch, degraded)
	if raised > 0 {
		span.SetAttr("proposals", fmt.Sprint(raised))
	}
	return raised
}

func (c *Controller) tick(ctx context.Context, snap *topology.Snapshot, epoch Epoch, degraded bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0
	}
	c.m.ticks.Inc()
	if c.started && epoch == c.lastEpoch {
		return 0
	}
	c.started = true
	c.lastEpoch = epoch
	if degraded {
		c.m.skippedDegraded.Inc()
		return 0
	}

	now := c.policy.Now()
	budget := c.policy.MaxPerEpoch
	raised := 0
	active := c.ledger.Active()
	seen := make(map[string]bool, len(active))
	for _, info := range active {
		seen[info.ID] = true
		if info.Request == nil {
			// Acquired without a shape: nothing to re-run the selection
			// with, so the lease is never re-placed.
			continue
		}
		adv, ok := c.evaluateLocked(ctx, snap, info)
		if !ok {
			continue
		}
		if !adv.Move {
			// Advice lapsed: the streak and any unapplied proposal die with
			// it — a proposal is only as good as the epoch that confirmed it.
			delete(c.streaks, info.ID)
			delete(c.pending, info.ID)
			continue
		}
		to := adv.Candidate.Names(c.ledger.Graph())
		sort.Strings(to)
		st := c.streaks[info.ID]
		if st == nil || !sameNames(st.to, to) {
			st = &streak{to: to}
			c.streaks[info.ID] = st
		}
		st.count++
		if st.count < c.policy.ConfirmEpochs {
			c.m.suppressed.With("debounce").Inc()
			continue
		}
		if until, cooling := c.cooldown[info.ID]; cooling && now.Before(until) {
			c.m.suppressed.With("cooldown").Inc()
			continue
		}
		p := &Proposal{
			Lease:          info.ID,
			From:           append([]string(nil), info.Nodes...),
			To:             to,
			Gain:           adv.Gain,
			CurrentScore:   adv.Current.MinResource,
			CandidateScore: adv.Candidate.MinResource,
			Bottleneck:     adv.Candidate.BottleneckName(c.ledger.Graph()),
			Confirmations:  st.count,
			Epoch:          epoch,
		}
		// The budget gates actions — raising a new proposal, or (in auto
		// mode) executing a handover. Refreshing an already-pending
		// proposal's scores is free, so a stuck proposal cannot starve
		// other leases of their turn.
		_, existed := c.pending[p.Lease]
		if (!existed || c.policy.Auto) && budget <= 0 {
			c.m.suppressed.With("budget").Inc()
			continue
		}
		if !existed {
			c.m.proposals.Inc()
			raised++
			c.event(Event{Op: "propose", Proposal: *p, RequestID: reqtrace.TraceID(ctx)})
			budget--
		}
		c.pending[p.Lease] = p
		if c.policy.Auto {
			if existed {
				budget--
			}
			c.applyLocked(ctx, snap, p, now)
		}
	}
	// Leases that were released or expired take their controller state with
	// them, and a cooldown ends when its deadline passes.
	for id := range c.pending {
		if !seen[id] {
			delete(c.pending, id)
		}
	}
	for id := range c.streaks {
		if !seen[id] {
			delete(c.streaks, id)
		}
	}
	for id, until := range c.cooldown {
		if !seen[id] || !now.Before(until) {
			delete(c.cooldown, id)
		}
	}
	return raised
}

// evaluateLocked scores one lease's placement against the residual view
// excluding its own reservation. Callers hold c.mu.
func (c *Controller) evaluateLocked(ctx context.Context, snap *topology.Snapshot, info lease.Info) (core.MigrationAdvice, bool) {
	residual, err := c.ledger.ResidualExcluding(snap, info.ID)
	if err != nil {
		// Raced with release/expiry; the post-loop cleanup handles state.
		return core.MigrationAdvice{}, false
	}
	c.m.evaluations.Inc()
	g := c.ledger.Graph()
	shape := info.Request
	req := core.Request{
		M:               len(info.Nodes),
		ComputePriority: shape.Priority,
		RefCapacity:     shape.RefCapacity,
		MinBW:           shape.MinBW,
		MinCPU:          shape.MinCPU,
		MinMemoryMB:     shape.MinMemoryMB,
		MaxPairLatency:  shape.MaxPairLatency,
	}
	for _, name := range shape.Pin {
		if id := g.NodeByName(name); id >= 0 {
			// A pinned node pruned from the topology cannot be pinned to;
			// dropping it lets the advisor route the lease somewhere alive.
			req.Pinned = append(req.Pinned, id)
		}
	}
	current := make([]int, len(info.Nodes))
	for i, name := range info.Nodes {
		current[i] = g.NodeByName(name) // -1 for pruned nodes: scores as dead
	}
	algo := shape.Algo
	if algo == "" || algo == core.AlgoRandom || algo == core.AlgoStatic {
		// Blind selectors say nothing about current conditions; advise with
		// the policy's measurement-driven algorithm instead.
		algo = c.policy.Algorithm
	}
	adv, err := core.AdviseMigrationCtx(ctx, residual, current, req, core.MigrationPolicy{
		Algorithm:     algo,
		MinGain:       c.policy.MinGain,
		MigrationCost: c.policy.MigrationCost,
	})
	if err != nil {
		return core.MigrationAdvice{}, false
	}
	return adv, true
}

// Apply executes a pending proposal: an atomic reserve-new-then-release-old
// handover through the ledger, re-checked for admission at apply time
// against the view that still includes the lease's current reservation.
// On success the proposal and its streak are cleared and the lease enters
// cooldown. Unknown lease IDs return lease.ErrNotFound; a proposal whose
// new set no longer fits returns the binding-bottleneck AdmissionError
// (and stays pending — conditions may improve).
func (c *Controller) Apply(ctx context.Context, snap *topology.Snapshot, leaseID string) (lease.Info, error) {
	ctx, span := reqtrace.StartSpan(ctx, "rebalance.apply")
	span.SetAttr("lease", leaseID)
	defer span.End()
	info, err := c.apply(ctx, snap, leaseID)
	if err != nil {
		span.Fail(err)
	}
	return info, err
}

func (c *Controller) apply(ctx context.Context, snap *topology.Snapshot, leaseID string) (lease.Info, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return lease.Info{}, lease.ErrClosed
	}
	p, ok := c.pending[leaseID]
	if !ok {
		return lease.Info{}, fmt.Errorf("%w: no pending migration for %q", lease.ErrNotFound, leaseID)
	}
	return c.applyLocked(ctx, snap, p, c.policy.Now())
}

// applyLocked performs the handover. Callers hold c.mu.
func (c *Controller) applyLocked(ctx context.Context, snap *topology.Snapshot, p *Proposal, now time.Time) (lease.Info, error) {
	g := c.ledger.Graph()
	target := make([]int, 0, len(p.To))
	for _, name := range p.To {
		id := g.NodeByName(name)
		if id < 0 {
			err := fmt.Errorf("%w: proposed node %q no longer exists", lease.ErrNotFound, name)
			c.failLocked(ctx, p, err)
			return lease.Info{}, err
		}
		target = append(target, id)
	}
	if c.testHookBeforeMigrate != nil {
		// Holds c.mu open mid-handover; a concurrent Close must block here
		// until the migrate below completes.
		c.testHookBeforeMigrate()
	}
	info, err := c.ledger.Migrate(ctx, snap, p.Lease, func(context.Context, *topology.Snapshot, float64) ([]int, error) {
		return target, nil
	})
	if err != nil {
		c.failLocked(ctx, p, err)
		return lease.Info{}, err
	}
	c.m.applied.Inc()
	c.cooldown[p.Lease] = now.Add(c.policy.Cooldown)
	delete(c.pending, p.Lease)
	delete(c.streaks, p.Lease)
	c.event(Event{Op: "apply", Proposal: *p, RequestID: reqtrace.TraceID(ctx)})
	return info, nil
}

// failLocked records a failed handover attempt. The proposal stays pending
// unless the lease itself is gone. Callers hold c.mu.
func (c *Controller) failLocked(ctx context.Context, p *Proposal, err error) {
	c.m.applyFailures.Inc()
	c.event(Event{Op: "apply_failed", Proposal: *p, Err: err, RequestID: reqtrace.TraceID(ctx)})
}

// sameNames reports whether two sorted name slices are identical.
func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

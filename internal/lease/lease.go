// Package lease implements the reservation ledger that makes concurrent
// node selections contention-aware. The paper's algorithms answer "which
// nodes are best right now?" against a Remos snapshot; on a shared network
// with many simultaneous applications that is not enough — two callers
// asking at the same instant get the same answer and oversubscribe the
// same bottleneck. The ledger closes that window: every admitted placement
// holds a lease that debits the fractional CPU of each selected node and
// the bandwidth of each link its pairwise flows cross, and every selection
// runs against the *residual* view of the snapshot (measured capacity
// minus committed reservations). The existing Figure 2/3 sweeps consume
// the residual snapshot unchanged, so each algorithm is automatically
// contention-aware.
//
// Lifecycle: Acquire admits-or-rejects atomically (placement and
// reservation happen in one critical section), Renew extends a lease's
// TTL, Release returns its capacity, and an expiry sweep reclaims leases
// whose clients crashed without releasing. An optional write-ahead log
// persists every transition so a restarted daemon recovers its active
// reservations (see wal.go).
package lease

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"nodeselect/internal/reqtrace"
	"nodeselect/internal/topology"
)

// Demand is what one placement debits from the network while its lease is
// active.
type Demand struct {
	// CPU is the fraction of each selected node's computation capacity
	// the application will consume, in [0, 1]. Zero debits no CPU.
	CPU float64 `json:"cpu,omitempty"`
	// BW is the bandwidth, in bits/second, of each pairwise flow between
	// selected nodes. Every link on the static route between a selected
	// pair is debited BW once per flow crossing it (all-pairs pattern).
	// Zero debits no bandwidth.
	BW float64 `json:"bw,omitempty"`
}

// Validate rejects malformed demands.
func (d Demand) Validate() error {
	if d.CPU < 0 || d.CPU > 1 || math.IsNaN(d.CPU) {
		return fmt.Errorf("%w: cpu demand %v outside [0, 1]", ErrBadDemand, d.CPU)
	}
	if d.BW < 0 || math.IsNaN(d.BW) || math.IsInf(d.BW, 0) {
		return fmt.Errorf("%w: bandwidth demand %v", ErrBadDemand, d.BW)
	}
	return nil
}

// Errors returned by the ledger.
var (
	// ErrBadDemand means the demand itself is malformed.
	ErrBadDemand = errors.New("lease: malformed demand")
	// ErrNotFound means the lease ID names no active lease (never issued,
	// released, or long since reclaimed).
	ErrNotFound = errors.New("lease: no such lease")
	// ErrExpired means the lease's term had already passed when the
	// operation arrived — the reservation is dead even if the TTL sweeper
	// has not reclaimed it yet. Renewing must not resurrect it.
	ErrExpired = errors.New("lease: lease expired")
	// ErrRejected means admission control refused the placement: the
	// residual network cannot host the demand. AdmissionError carries the
	// binding bottleneck.
	ErrRejected = errors.New("lease: admission rejected")
	// ErrClosed means the ledger has been closed: its release/flush path is
	// gone, so capacity-moving transitions are refused rather than half
	// persisted.
	ErrClosed = errors.New("lease: ledger closed")
	// ErrNotLeader means this replica cannot commit transitions: in a
	// replicated cluster only the leader may propose. Replicator
	// implementations wrap it (carrying a leader hint) so the service can
	// redirect the client.
	ErrNotLeader = errors.New("lease: not the cluster leader")
)

// Shape records the originating placement request of a lease — enough for a
// re-placement controller to re-run the same selection later (node count,
// algorithm, floors, pins) without the original caller. Pins are node
// *names* so a shape recovered from the WAL survives topology re-discovery.
type Shape struct {
	// M is the requested node count.
	M int `json:"m,omitempty"`
	// Algo names the selection algorithm the placement was computed with.
	Algo string `json:"algo,omitempty"`
	// Mode names the measurement query mode of the original request.
	Mode string `json:"mode,omitempty"`
	// Priority, RefCapacity, MinBW, MinCPU, MinMemoryMB and MaxPairLatency
	// mirror core.Request's floors and weights.
	Priority       float64 `json:"priority,omitempty"`
	RefCapacity    float64 `json:"ref_capacity,omitempty"`
	MinBW          float64 `json:"min_bw,omitempty"`
	MinCPU         float64 `json:"min_cpu,omitempty"`
	MinMemoryMB    float64 `json:"min_memory_mb,omitempty"`
	MaxPairLatency float64 `json:"max_pair_latency,omitempty"`
	// Pin lists node names that must be part of any placement.
	Pin []string `json:"pin,omitempty"`
}

// clone returns a deep copy (nil-safe), so ledger internals never alias
// caller-visible Infos.
func (s *Shape) clone() *Shape {
	if s == nil {
		return nil
	}
	c := *s
	c.Pin = append([]string(nil), s.Pin...)
	return &c
}

// AdmissionError is a rejection with the binding bottleneck named: the
// node or link whose residual capacity falls short of the demand.
type AdmissionError struct {
	// Kind is "node" (CPU shortfall) or "link" (bandwidth shortfall).
	Kind string
	// Bottleneck names the binding resource: a node name, or a link as
	// "a--b" endpoint names.
	Bottleneck string
	// Need and Have quantify the shortfall: CPU fractions for nodes,
	// bits/second for links.
	Need, Have float64
}

func (e *AdmissionError) Error() string {
	if e.Kind == "link" {
		return fmt.Sprintf("lease: admission rejected: link %s: need %s, have %s uncommitted",
			e.Bottleneck, topology.FormatBandwidth(e.Need), topology.FormatBandwidth(e.Have))
	}
	return fmt.Sprintf("lease: admission rejected: node %s: need %.2f cpu, have %.2f uncommitted",
		e.Bottleneck, e.Need, e.Have)
}

// Unwrap makes errors.Is(err, ErrRejected) hold.
func (e *AdmissionError) Unwrap() error { return ErrRejected }

// Lease is one active reservation. The ledger owns the struct; callers see
// copies via Info.
type Lease struct {
	// ID is the ledger-unique lease name ("lease-N").
	ID string
	// Nodes is the placed compute node set, sorted by node ID.
	Nodes []int
	// Demand is the per-node CPU fraction and per-flow bandwidth debited.
	Demand Demand
	// Shape is the originating request, when the caller recorded one; nil
	// for leases acquired without it (the re-placement controller skips
	// those).
	Shape *Shape
	// Created and Expiry bound the lease's current term.
	Created, Expiry time.Time
	// linkBW[linkID] is the bandwidth debited from each link: flow
	// multiplicity times Demand.BW.
	linkBW map[int]float64

	// Commit bookkeeping: nonzero only while a transition's record is being
	// committed (see commitLocked) — on a standalone ledger that is inside
	// one critical section, so no other caller ever sees it set.
	//
	// pending marks an acquire that has reserved its debits but whose
	// record has not yet committed: the lease is invisible to reads and
	// immune to sweeps until Apply finalizes it (or a failed commit rolls it
	// back).
	pending bool
	// inflight counts commits outstanding against this lease (renew,
	// release, migrate, expire). The sweeper must not propose an expiry
	// while one is in flight, and conflicting capacity-moving proposals are
	// refused rather than interleaved.
	inflight int
	// handoverVer is the ledger version at which an in-flight
	// reserve-new-alongside-old migration handover reserved its new debits
	// (nonzero while the handover awaits quorum commit); pendingNodes and
	// pendingLinkBW hold that reserve-new half. The TTL sweep checks
	// handoverVer so it can never expire a lease mid-handover — expiring
	// the old half while the new half is uncommitted would strand the new
	// debits and resurrect the lease when the migrate record lands.
	handoverVer   uint64
	pendingNodes  []int
	pendingLinkBW map[int]float64
}

// Info is the externally visible form of a lease, JSON-ready for the
// service's /leases endpoints.
type Info struct {
	ID    string   `json:"id"`
	Nodes []string `json:"nodes"`
	// CPU and BW echo the demand.
	CPU float64 `json:"cpu,omitempty"`
	BW  float64 `json:"bw,omitempty"`
	// Links is the per-link bandwidth debit, keyed "a--b".
	Links map[string]float64 `json:"links,omitempty"`
	// Request is the originating request shape, when recorded at acquire
	// time — what the rebalance controller re-runs selection with.
	Request   *Shape    `json:"request,omitempty"`
	CreatedAt time.Time `json:"created_at"`
	ExpiresAt time.Time `json:"expires_at"`
	// TTLSeconds is the remaining time to live at the moment the Info was
	// taken.
	TTLSeconds float64 `json:"ttl_seconds"`
}

// Options tunes a ledger.
type Options struct {
	// Now is the clock (default time.Now); injectable for tests.
	Now func() time.Time
	// DefaultTTL is used when Acquire/Renew receive a zero TTL (default
	// 30s). MaxTTL caps any requested TTL (default 10m).
	DefaultTTL, MaxTTL time.Duration
	// WAL, when non-nil, persists every ledger transition; New replays it
	// so active leases survive a restart. Open one with OpenWAL.
	WAL *WAL
	// PlaceAttempts bounds Acquire's bandwidth-floor escalation retries
	// (default 3). See Acquire.
	PlaceAttempts int
	// CrossCheck, when set, verifies the incrementally maintained residual
	// view against a full recompute on every derivation and panics on the
	// first divergence. The patch formula is the recompute formula applied
	// to the dirty entries, so the two must agree bit for bit; this is a
	// debug mode for tests, not for production traffic.
	CrossCheck bool
	// Replicator, when non-nil, turns the ledger into one replica of a
	// replicated cluster: every transition is proposed through it instead
	// of the WAL, and takes effect via Apply in replicated-log order on
	// every replica.
	// Mutually exclusive with WAL — a replicated ledger's durability lives
	// in the replica log, and a second local WAL would double-apply on
	// restart. Usually installed after construction via SetReplicator
	// (the replica node needs the ledger's Apply first).
	Replicator Replicator
}

// Replicator commits ledger transitions to a replication quorum. Replicate
// returns only after rec is durable on a majority AND applied to the local
// ledger (via Apply); any error means the record may or may not commit
// later — callers roll back optimistic state and let Apply reconcile a
// late commit. Implementations wrap ErrNotLeader when this replica cannot
// propose.
type Replicator interface {
	Replicate(ctx context.Context, rec *Record) error
}

func (o Options) withDefaults() Options {
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.DefaultTTL <= 0 {
		o.DefaultTTL = 30 * time.Second
	}
	if o.MaxTTL <= 0 {
		o.MaxTTL = 10 * time.Minute
	}
	if o.PlaceAttempts < 1 {
		o.PlaceAttempts = 3
	}
	return o
}

// Stats counts ledger transitions since construction. Monotonic; read a
// copy with Ledger.Stats.
type Stats struct {
	Acquired, Renewed, Released, Expired, Rejected, Migrated int64
	// Recovered counts leases replayed from the WAL at construction;
	// RecoverySkipped counts WAL entries dropped because they had expired
	// or named nodes absent from the current topology.
	Recovered, RecoverySkipped int64
	// Batches counts applied AcquireBatch commits (each may carry many
	// acquires, all included in Acquired/Rejected as usual).
	Batches int64
}

// Ledger is the reservation book: committed CPU per node, committed
// bandwidth per link, and the active leases that own those debits. All
// methods are safe for concurrent use; Acquire's placement callback runs
// inside the ledger's critical section, which is what makes
// admit-and-reserve atomic.
type Ledger struct {
	g   *topology.Graph
	opt Options

	mu      sync.Mutex
	leases  map[string]*Lease
	nodeCPU []float64 // committed CPU fraction per node
	linkBW  []float64 // committed bandwidth per link
	// nonzeroDebits counts the nonzero entries across nodeCPU and linkBW.
	// Zero means the ledger holds no reservations at all (no lease, or only
	// zero-demand leases), so the residual view IS the measured snapshot
	// and no clone or recompute is needed.
	nonzeroDebits int
	resid         residCache
	nextID        int64
	version       uint64
	stats         Stats
	onEvent       func(op string, l *Lease)
	closed        bool
}

// residCache memoizes the derived residual view so repeated derivations
// against the same base snapshot patch only the entries whose debits moved
// since the last call, instead of cloning the whole snapshot and
// re-applying every debit. Identity of the base's contents is
// (pointer, Gen): the cache holds the pointer alive, so the allocator can
// never hand the same address to a different snapshot, and every in-place
// mutation advances Gen.
type residCache struct {
	base    *topology.Snapshot
	baseGen uint64
	view    *topology.Snapshot
	// dirtyNodes/dirtyLinks are the entries whose committed debits changed
	// since view was last patched. Tracked only while a view exists.
	dirtyNodes map[int]struct{}
	dirtyLinks map[int]struct{}
	// shared marks a view Residual has handed out: callers may hold it
	// indefinitely, so the next change patches a copy instead.
	shared bool
}

// New builds a ledger over the graph. When opts.WAL is set, the WAL's
// recovered state (snapshot plus log replay) is installed: unexpired
// leases are re-debited — recomputing link debits from the current graph's
// routes — and the ID counter resumes past every ID ever issued.
func New(g *topology.Graph, opts Options) (*Ledger, error) {
	if g == nil {
		return nil, fmt.Errorf("lease: ledger needs a graph")
	}
	opts = opts.withDefaults()
	l := &Ledger{
		g:       g,
		opt:     opts,
		leases:  make(map[string]*Lease),
		nodeCPU: make([]float64, g.NumNodes()),
		linkBW:  make([]float64, g.NumLinks()),
		resid: residCache{
			dirtyNodes: make(map[int]struct{}),
			dirtyLinks: make(map[int]struct{}),
		},
	}
	if opts.WAL != nil && opts.Replicator != nil {
		return nil, fmt.Errorf("lease: WAL and Replicator are mutually exclusive (the replica log is the durability layer)")
	}
	if opts.WAL != nil {
		if err := l.recover(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// SetReplicator installs the replication layer after construction —
// the replica node is built around the ledger's Apply, so neither can be
// complete before the other. Install before serving traffic; panics if the
// ledger already has a WAL.
func (l *Ledger) SetReplicator(r Replicator) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.opt.WAL != nil {
		panic("lease: SetReplicator on a WAL-backed ledger")
	}
	l.opt.Replicator = r
}

// SetOnEvent installs an observer for ledger transitions ("acquire",
// "renew", "release", "expire"), called with the ledger locked — keep it
// cheap (metric increments). Install before serving traffic.
func (l *Ledger) SetOnEvent(fn func(op string, ls *Lease)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onEvent = fn
}

// Version returns a monotonic counter bumped on every capacity-changing
// step: reserving and finalizing an acquire or a migration handover, rolling
// one back, release, expiry, and WAL recovery. Renewals do not change
// residual capacity and do not bump it. A plan cached against one
// version can never be served once the counter moves — versions are never
// reused, so there is no ABA window.
func (l *Ledger) Version() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.version
}

// Graph returns the topology the ledger reserves against.
func (l *Ledger) Graph() *topology.Graph { return l.g }

// Stats returns a copy of the transition counters.
func (l *Ledger) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Len reports the number of active leases.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.leases)
}

// Committed returns copies of the per-node CPU and per-link bandwidth
// currently reserved.
func (l *Ledger) Committed() (nodeCPU, linkBW []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.nodeCPU...), append([]float64(nil), l.linkBW...)
}

// MaxCommitted reports the tightest commitments: the largest reserved CPU
// fraction on any node and the largest reserved fraction of any link's
// capacity. Both are 0 on an empty ledger and never exceed what admission
// allowed.
func (l *Ledger) MaxCommitted() (cpuFrac, bwFrac float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.nodeCPU {
		cpuFrac = math.Max(cpuFrac, c)
	}
	for lid, bw := range l.linkBW {
		bwFrac = math.Max(bwFrac, bw/l.g.Link(lid).Capacity)
	}
	return cpuFrac, bwFrac
}

// clampTTL applies the default and ceiling.
func (l *Ledger) clampTTL(ttl time.Duration) time.Duration {
	if ttl <= 0 {
		ttl = l.opt.DefaultTTL
	}
	if ttl > l.opt.MaxTTL {
		ttl = l.opt.MaxTTL
	}
	return ttl
}

// event fires the observer. Callers hold l.mu.
func (l *Ledger) event(op string, ls *Lease) {
	if l.onEvent != nil {
		l.onEvent(op, ls)
	}
}

// minResidualCPU keeps residual load averages finite when a node's
// capacity is fully committed.
const minResidualCPU = 1e-9

// epsNodeCPU and epsLinkBW snap committed-debit residue to zero: the sum
// of a lease set's debits minus the same multiset need not be exactly 0
// in floats, and a stranded 1e-17 would keep the nonzero-debit count (and
// with it the residual slow path) engaged forever after the last lease
// drains. Both bounds sit far below any meaningful demand (CPU fractions,
// bits per second).
const (
	epsNodeCPU = 1e-9
	epsLinkBW  = 1e-3
)

// addNodeCPU moves a node's committed CPU debit by delta, clamping the
// float-drift undershoot at zero. Every mutation of l.nodeCPU goes through
// here so the nonzero-debit count and the residual cache's dirty set stay
// exact. Callers hold l.mu.
func (l *Ledger) addNodeCPU(id int, delta float64) {
	was := l.nodeCPU[id]
	v := was + delta
	if v < epsNodeCPU {
		v = 0 // float drift guard, both undershoot and stranded residue
	}
	l.nodeCPU[id] = v
	if was == 0 {
		if v != 0 {
			l.nonzeroDebits++
		}
	} else if v == 0 {
		l.nonzeroDebits--
	}
	if l.resid.view != nil {
		l.resid.dirtyNodes[id] = struct{}{}
	}
}

// addLinkBW is addNodeCPU for a link's committed bandwidth debit.
// Callers hold l.mu.
func (l *Ledger) addLinkBW(lid int, delta float64) {
	was := l.linkBW[lid]
	v := was + delta
	if v < epsLinkBW {
		v = 0
	}
	l.linkBW[lid] = v
	if was == 0 {
		if v != 0 {
			l.nonzeroDebits++
		}
	} else if v == 0 {
		l.nonzeroDebits--
	}
	if l.resid.view != nil {
		l.resid.dirtyLinks[lid] = struct{}{}
	}
}

// residualLocked returns the snapshot with committed reservations
// subtracted: each node's CPU fraction is reduced by its committed
// fraction (re-expressed as a load average, so Snapshot.CPU reports the
// uncommitted capacity) and each link's available bandwidth by its
// committed bandwidth, clamped at zero. With no reservations at all the
// snapshot is returned as-is (callers treat snapshots as read-only).
//
// The view is maintained incrementally: the first derivation against a
// snapshot clones it and applies every debit (exactly residualFrom); while
// the base stays the same, later derivations re-apply the formula only to
// entries whose debits moved. The patch and the full recompute run the
// same float operations on the same inputs, so the two are bitwise
// identical — Options.CrossCheck asserts that on every call.
//
// The returned view is owned by the ledger: placement callbacks may read it
// during their call but must not retain it, because the next derivation
// patches it in place — unless Residual has handed it out, in which case
// that derivation patches a copy and the handed-out view stays as it was.
// Callers hold l.mu.
func (l *Ledger) residualLocked(snap *topology.Snapshot) *topology.Snapshot {
	if l.nonzeroDebits == 0 {
		return snap
	}
	c := &l.resid
	if c.view == nil || c.base != snap || c.baseGen != snap.Gen() {
		c.base, c.baseGen = snap, snap.Gen()
		c.view, c.shared = residualFrom(snap, l.nodeCPU, l.linkBW), false
		clear(c.dirtyNodes)
		clear(c.dirtyLinks)
	} else if len(c.dirtyNodes)+len(c.dirtyLinks) > 0 {
		if c.shared {
			c.view, c.shared = c.view.Clone(), false
		}
		for id := range c.dirtyNodes {
			if committed := l.nodeCPU[id]; committed > 0 {
				cpu := snap.CPU(id) - committed
				if cpu < minResidualCPU {
					cpu = minResidualCPU
				}
				c.view.LoadAvg[id] = 1/cpu - 1
			} else {
				c.view.LoadAvg[id] = snap.LoadAvg[id]
			}
		}
		for lid := range c.dirtyLinks {
			if committed := l.linkBW[lid]; committed > 0 {
				c.view.SetAvailBW(lid, snap.AvailBW[lid]-committed)
			} else {
				c.view.AvailBW[lid] = snap.AvailBW[lid]
			}
		}
		clear(c.dirtyNodes)
		clear(c.dirtyLinks)
	}
	if l.opt.CrossCheck {
		l.crossCheckLocked(snap, c.view)
	}
	return c.view
}

// crossCheckLocked recomputes the residual from scratch and panics on any
// divergence from the incrementally patched view. Callers hold l.mu.
func (l *Ledger) crossCheckLocked(snap, view *topology.Snapshot) {
	full := residualFrom(snap, l.nodeCPU, l.linkBW)
	for id := range full.LoadAvg {
		if view.LoadAvg[id] != full.LoadAvg[id] {
			panic(fmt.Sprintf("lease: residual cross-check: node %d load %v, full recompute %v",
				id, view.LoadAvg[id], full.LoadAvg[id]))
		}
	}
	for lid := range full.AvailBW {
		if view.AvailBW[lid] != full.AvailBW[lid] {
			panic(fmt.Sprintf("lease: residual cross-check: link %d avail %v, full recompute %v",
				lid, view.AvailBW[lid], full.AvailBW[lid]))
		}
	}
}

// residualFrom applies committed per-node CPU and per-link bandwidth
// debits to a copy of snap.
func residualFrom(snap *topology.Snapshot, nodeCPU, linkBW []float64) *topology.Snapshot {
	r := snap.Clone()
	for id, committed := range nodeCPU {
		if committed <= 0 {
			continue
		}
		cpu := r.CPU(id) - committed
		if cpu < minResidualCPU {
			cpu = minResidualCPU
		}
		r.LoadAvg[id] = 1/cpu - 1
	}
	for lid, committed := range linkBW {
		if committed <= 0 {
			continue
		}
		r.SetAvailBW(lid, r.AvailBW[lid]-committed)
	}
	return r
}

// Residual returns the residual view of snap: measured capacities minus
// committed reservations, after sweeping expired leases. The selection
// algorithms consume it exactly like a raw snapshot. The result is shared
// and read-only: with no reservations it is the input snapshot itself, and
// with reservations it is the ledger's current view, which never changes
// once handed out — the next commit's derivation patches a copy — so every
// caller between two commits gets the same view and none pays a clone.
func (l *Ledger) Residual(snap *topology.Snapshot) *topology.Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sweepLocked(l.opt.Now())
	r := l.residualLocked(snap)
	if r != snap {
		l.resid.shared = true
	}
	return r
}

// ResidualExcluding returns the residual view of snap with the named
// lease's own debits credited back — the network as every *other* tenant
// loads it. The paper's §3.3 migration caveat requires exactly this view:
// an application deciding whether to move must not count its own
// reservation as competing load, or staying put always looks congested.
func (l *Ledger) ResidualExcluding(snap *topology.Snapshot, id string) (*topology.Snapshot, error) {
	if snap == nil || snap.Graph != l.g {
		return nil, fmt.Errorf("lease: snapshot does not belong to the ledger's graph")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sweepLocked(l.opt.Now())
	ls, ok := l.leases[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if len(l.leases) == 1 {
		// The excluded lease is the only tenant: the residual is the raw view.
		return snap, nil
	}
	nodeCPU := append([]float64(nil), l.nodeCPU...)
	linkBW := append([]float64(nil), l.linkBW...)
	for _, nid := range ls.Nodes {
		if nodeCPU[nid] -= ls.Demand.CPU; nodeCPU[nid] < 0 {
			nodeCPU[nid] = 0
		}
	}
	for lid, bw := range ls.linkBW {
		if linkBW[lid] -= bw; linkBW[lid] < 0 {
			linkBW[lid] = 0
		}
	}
	return residualFrom(snap, nodeCPU, linkBW), nil
}

// PlaceFunc computes a placement on the residual view. minBW is the
// bandwidth floor the ledger asks the placer to honour — at least the
// demand's per-flow bandwidth, escalated by Acquire when a chosen set's
// per-link flow multiplicity needs more than one flow's worth. A placer
// is free to ignore it; admission is checked independently afterwards.
// The context carries the request's trace; placers that run a selection
// sweep should thread it through so the sweep's span lands in the same
// trace as the ledger's own.
type PlaceFunc func(ctx context.Context, residual *topology.Snapshot, minBW float64) ([]int, error)

// Acquire runs the whole admit-or-reject sequence in one critical
// section: sweep expired leases, build the residual view, call place on
// it, verify the chosen set's debits fit the residual capacity, and — only
// if they do — commit the reservation and issue a lease. Rejections leave
// the ledger untouched and name the binding bottleneck via AdmissionError
// (or return the placer's own error when no feasible set exists at all).
//
// A single-flow bandwidth floor is necessary but not sufficient: a link
// crossed by k of the placement's flows must hold k times the per-flow
// demand. When the post-placement check finds such a shortfall, Acquire
// retries with the floor raised to the failing multiplicity's requirement,
// up to Options.PlaceAttempts times, before rejecting.
func (l *Ledger) Acquire(ctx context.Context, snap *topology.Snapshot, d Demand, ttl time.Duration, place PlaceFunc) (Info, error) {
	return l.AcquireShaped(ctx, snap, d, ttl, nil, place)
}

// AcquireShaped is Acquire with the originating request shape recorded on
// the lease (and in the WAL): the rebalance controller needs it to re-run
// the same selection against fresher conditions after admission. A nil
// shape behaves exactly like Acquire; such leases are never re-placed.
func (l *Ledger) AcquireShaped(ctx context.Context, snap *topology.Snapshot, d Demand, ttl time.Duration, shape *Shape, place PlaceFunc) (Info, error) {
	ctx, span := reqtrace.StartSpan(ctx, "lease.acquire")
	defer span.End()
	info, err := l.acquireShaped(ctx, snap, d, ttl, shape, place)
	if err != nil {
		span.Fail(err)
	} else {
		span.SetAttr("lease", info.ID)
	}
	return info, err
}

func (l *Ledger) acquireShaped(ctx context.Context, snap *topology.Snapshot, d Demand, ttl time.Duration, shape *Shape, place PlaceFunc) (Info, error) {
	if err := d.Validate(); err != nil {
		return Info{}, err
	}
	if snap == nil || snap.Graph != l.g {
		return Info{}, fmt.Errorf("lease: snapshot does not belong to the ledger's graph")
	}
	ttl = l.clampTTL(ttl)

	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.opt.Now()
	l.sweepLocked(now)
	nodes, debits, err := l.placeAdmitLocked(ctx, snap, d, place)
	if err != nil {
		return Info{}, err
	}
	ls := l.reserveLocked(nodes, d, shape, debits, now, ttl)
	rec := acquireRecord(l.g, ls)
	rec.RequestID = reqtrace.TraceID(ctx)
	return l.settleAcquireLocked(ls.ID, l.commitLocked(ctx, rec))
}

// reserveLocked issues the next lease ID to an admitted placement and
// debits it at once as a pending lease: a concurrent admission sees the
// debits, while readers and the sweep do not see the lease until Apply
// finalizes it. Callers hold l.mu.
func (l *Ledger) reserveLocked(nodes []int, d Demand, shape *Shape, debits map[int]float64, now time.Time, ttl time.Duration) *Lease {
	ls := &Lease{
		ID:      "lease-" + strconv.FormatInt(l.nextID, 10),
		Nodes:   append([]int(nil), nodes...),
		Demand:  d,
		Shape:   shape.clone(),
		Created: now,
		Expiry:  now.Add(ttl),
		linkBW:  debits,
		pending: true,
	}
	sort.Ints(ls.Nodes)
	l.nextID++
	l.debitLocked(ls.Nodes, d.CPU, debits, 1)
	l.leases[ls.ID] = ls
	l.version++
	return ls
}

// settleAcquireLocked reads back what the commit of a reserved acquire
// did. Success means Apply finalized the pending lease; a failed commit
// returns the reservation. A record that commits after all (a quorum ack
// can race an error) is re-installed from the record by Apply, and one
// Apply finalized before its error surfaced is acked: the committed state
// wins over the error. The ID is burned either way, since Apply and
// AdvanceSeq keep the counter past it. Callers hold l.mu.
func (l *Ledger) settleAcquireLocked(id string, err error) (Info, error) {
	cur := l.leases[id]
	switch {
	case err != nil && cur != nil && cur.pending:
		l.dropLocked(cur)
		return Info{}, err
	case cur != nil:
		return l.infoLocked(cur), nil
	case err != nil:
		return Info{}, err
	}
	return Info{}, fmt.Errorf("lease: %q vanished during commit", id)
}

// placeAdmitLocked runs the place-then-admission-check loop with
// bandwidth-floor escalation: a single-flow floor is necessary but not
// sufficient (a link crossed by k flows needs k times the per-flow demand),
// so a link shortfall raises the floor and retries, up to
// Options.PlaceAttempts times. Returns the admitted node set and its link
// debits, or the last binding bottleneck (the placer's own error when no
// feasible set exists at all). Callers hold l.mu.
func (l *Ledger) placeAdmitLocked(ctx context.Context, snap *topology.Snapshot, d Demand, place PlaceFunc) ([]int, map[int]float64, error) {
	minBW := d.BW
	var lastAdm *AdmissionError
	for attempt := 0; attempt < l.opt.PlaceAttempts; attempt++ {
		residual := l.residualLocked(snap)
		placeCtx, placeSpan := reqtrace.StartSpan(ctx, "lease.place")
		placeSpan.SetAttr("attempt", fmt.Sprint(attempt))
		nodes, err := place(placeCtx, residual, minBW)
		if err != nil {
			placeSpan.Fail(err)
			placeSpan.End()
			l.stats.Rejected++
			// The escalated floor made placement infeasible: the previous
			// round's admission shortfall is the real, nameable bottleneck.
			if lastAdm != nil {
				return nil, nil, lastAdm
			}
			return nil, nil, err
		}
		placeSpan.End()
		debits, adm := l.admissionCheck(residual, nodes, d)
		if adm == nil {
			return nodes, debits, nil
		}
		lastAdm = adm
		if adm.Kind == "link" && adm.Need > minBW {
			minBW = adm.Need
			continue
		}
		break
	}
	l.stats.Rejected++
	return nil, nil, lastAdm
}

// Migrate atomically moves an active lease to a new node set: the handover
// reserves the new set alongside the old one and releases the old one only
// when Apply installs the migrate record, so there is no instant at which
// either the old or the new placement is unbacked by a reservation, and no
// instant of oversubscription. The new set's debits
// are admission-checked against the residual view that still includes the
// lease's own current reservation — the new set must fit *alongside* the
// old one; if it cannot, Migrate rejects with the binding bottleneck and
// the lease keeps its current nodes. The place callback receives that
// residual view and the lease's per-flow bandwidth demand as the floor;
// returning the current node set is a successful no-op. The lease keeps
// its ID, demand, shape and expiry — migration does not extend the term.
func (l *Ledger) Migrate(ctx context.Context, snap *topology.Snapshot, id string, place PlaceFunc) (Info, error) {
	ctx, span := reqtrace.StartSpan(ctx, "lease.migrate")
	span.SetAttr("lease", id)
	defer span.End()
	info, err := l.migrate(ctx, snap, id, place)
	if err != nil {
		span.Fail(err)
	}
	return info, err
}

func (l *Ledger) migrate(ctx context.Context, snap *topology.Snapshot, id string, place PlaceFunc) (Info, error) {
	if snap == nil || snap.Graph != l.g {
		return Info{}, fmt.Errorf("lease: snapshot does not belong to the ledger's graph")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		// The release-old path (WAL flush) is gone; committing the
		// reserve-new half now could never be durably released.
		return Info{}, ErrClosed
	}
	ls, err := l.liveLocked(id, l.opt.Now())
	if err != nil {
		return Info{}, err
	}
	if ls.inflight > 0 || ls.handoverVer != 0 {
		return Info{}, fmt.Errorf("%w: lease %q has a transition in flight", ErrRejected, id)
	}

	residual := l.residualLocked(snap)
	placeCtx, placeSpan := reqtrace.StartSpan(ctx, "lease.place")
	nodes, err := place(placeCtx, residual, ls.Demand.BW)
	if err != nil {
		placeSpan.Fail(err)
		placeSpan.End()
		l.stats.Rejected++
		return Info{}, err
	}
	placeSpan.End()
	nodes = append([]int(nil), nodes...)
	sort.Ints(nodes)
	if sameNodeSet(nodes, ls.Nodes) {
		return l.infoLocked(ls), nil
	}
	debits, adm := l.admissionCheck(residual, nodes, ls.Demand)
	if adm != nil {
		l.stats.Rejected++
		return Info{}, adm
	}

	// Reserve the new half alongside the old one. handoverVer (the version
	// of the reservation) shields the lease from TTL expiry and rival
	// transitions until the commit decides. The migrate record carries the
	// full new lease state, so replay after a crash lands on exactly one of
	// the two placements, never a mixture.
	l.debitLocked(nodes, ls.Demand.CPU, debits, 1)
	ls.pendingNodes, ls.pendingLinkBW = nodes, debits
	l.version++
	ls.handoverVer = l.version
	moved := *ls
	moved.Nodes, moved.linkBW = nodes, debits
	rec := acquireRecord(l.g, &moved)
	rec.Op = OpMigrate
	rec.RequestID = reqtrace.TraceID(ctx)
	err = l.commitLocked(ctx, rec)

	cur := l.leases[id]
	if cur == nil {
		// Unreachable by construction (handoverVer blocks release, expiry
		// and rival proposals), kept for defense in depth.
		if err == nil {
			err = fmt.Errorf("%w: %q", ErrNotFound, id)
		}
		return Info{}, err
	}
	if cur.handoverVer != 0 {
		// Apply did not finalize the handover: return the new half's debits.
		l.dropHandoverLocked(cur)
		l.version++
		if err == nil {
			err = fmt.Errorf("lease: migrate %q committed without applying", id)
		}
		return Info{}, err
	}
	return l.infoLocked(cur), nil
}

// liveLocked finds the lease a renew or migrate acts on, sweeping expired
// leases on the way. The expiry check precedes the sweep: sweeping first
// would reclaim an overdue lease and misreport it as never having
// existed. A pending lease has not committed, so it does not exist yet.
// Callers hold l.mu.
func (l *Ledger) liveLocked(id string, now time.Time) (*Lease, error) {
	ls, ok := l.leases[id]
	if ok && !ls.pending && !ls.Expiry.After(now) {
		l.sweepLocked(now)
		return nil, fmt.Errorf("%w: %q expired at %s", ErrExpired, id, ls.Expiry.Format(time.RFC3339))
	}
	l.sweepLocked(now)
	if !ok || ls.pending {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return ls, nil
}

// sameNodeSet reports whether two sorted node slices are identical.
func sameNodeSet(a, b []int) bool {
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

// admissionCheck computes the per-link debits for a candidate placement
// and verifies the residual view can host them plus the per-node CPU
// demand. It returns the debit map on success, or the binding bottleneck.
// Callers hold l.mu.
func (l *Ledger) admissionCheck(residual *topology.Snapshot, nodes []int, d Demand) (map[int]float64, *AdmissionError) {
	const eps = 1e-9
	if d.CPU > 0 {
		for _, id := range nodes {
			if have := residual.CPU(id); have < d.CPU-eps {
				return nil, &AdmissionError{
					Kind: "node", Bottleneck: l.g.Node(id).Name,
					Need: d.CPU, Have: have,
				}
			}
		}
	}
	debits := l.linkDebits(nodes, d.BW)
	if d.BW > 0 {
		// Check links in ID order, not map order: the first violation found
		// names the bottleneck AND sets the escalation floor in
		// placeAdmitLocked, so iteration order must be deterministic or
		// identical requests can take different retry paths.
		lids := make([]int, 0, len(debits))
		for lid := range debits {
			lids = append(lids, lid)
		}
		sort.Ints(lids)
		for _, lid := range lids {
			need := debits[lid]
			if have := residual.AvailBW[lid]; have < need-eps {
				link := l.g.Link(lid)
				return nil, &AdmissionError{
					Kind:       "link",
					Bottleneck: l.g.Node(link.A).Name + "--" + l.g.Node(link.B).Name,
					Need:       need, Have: have,
				}
			}
		}
	}
	return debits, nil
}

// linkDebits is the bandwidth a placement's all-pairs flows debit from
// each link they cross: flow multiplicity times the per-flow demand.
func (l *Ledger) linkDebits(nodes []int, bw float64) map[int]float64 {
	debits := make(map[int]float64)
	if bw > 0 {
		for lid, flows := range l.g.FlowLinkCounts(nodes) {
			debits[lid] = float64(flows) * bw
		}
	}
	return debits
}

// debitLocked adds (sign 1) or returns (sign -1) one placement's debits:
// cpu on every node, and each link's bandwidth. Callers hold l.mu.
func (l *Ledger) debitLocked(nodes []int, cpu float64, links map[int]float64, sign float64) {
	for _, id := range nodes {
		l.addNodeCPU(id, sign*cpu)
	}
	for lid, bw := range links {
		l.addLinkBW(lid, sign*bw)
	}
}

// Renew extends a lease's term to now + ttl (the default TTL when ttl is
// zero, capped at MaxTTL). A lease whose term has already passed cannot be
// renewed — even if the TTL sweeper has not reclaimed it yet. Its capacity
// is conceptually returned the moment the clock passes Expiry, and other
// admissions may have been granted on that basis, so resurrecting the
// reservation could oversubscribe; the caller gets the typed ErrExpired
// (distinct from ErrNotFound) and must re-admit through Acquire.
func (l *Ledger) Renew(ctx context.Context, id string, ttl time.Duration) (Info, error) {
	ctx, span := reqtrace.StartSpan(ctx, "lease.renew")
	span.SetAttr("lease", id)
	defer span.End()
	info, err := l.renew(ctx, id, ttl)
	if err != nil {
		span.Fail(err)
	}
	return info, err
}

func (l *Ledger) renew(ctx context.Context, id string, ttl time.Duration) (Info, error) {
	ttl = l.clampTTL(ttl)
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.opt.Now()
	ls, err := l.liveLocked(id, now)
	if err != nil {
		return Info{}, err
	}
	// The new expiry is stamped into the record so every replica, and a
	// replayed WAL, lands on the identical timestamp.
	ls.inflight++
	err = l.commitLocked(ctx, Record{Op: OpRenew, ID: id, ExpiryUnixMS: now.Add(ttl).UnixMilli(), RequestID: reqtrace.TraceID(ctx)})
	cur := l.leases[id]
	if cur == nil {
		if err != nil {
			return Info{}, err
		}
		// The renew committed but a competing expire/release landed right
		// after it in the log: the lease is gone and must be re-admitted.
		return Info{}, fmt.Errorf("%w: %q", ErrExpired, id)
	}
	cur.inflight--
	if err != nil {
		return Info{}, err
	}
	return l.infoLocked(cur), nil
}

// Release returns a lease's capacity to the pool.
func (l *Ledger) Release(ctx context.Context, id string) error {
	ctx, span := reqtrace.StartSpan(ctx, "lease.release")
	span.SetAttr("lease", id)
	defer span.End()
	err := l.release(ctx, id)
	if err != nil {
		span.Fail(err)
	}
	return err
}

func (l *Ledger) release(ctx context.Context, id string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sweepLocked(l.opt.Now())
	ls, ok := l.leases[id]
	if !ok || ls.pending {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if ls.handoverVer != 0 {
		// A release interleaved into an uncommitted handover would leave the
		// migrate record to resurrect the lease on replay; refuse instead.
		return fmt.Errorf("%w: lease %q has a migration handover in flight", ErrRejected, id)
	}
	ls.inflight++
	err := l.commitLocked(ctx, Record{Op: OpRelease, ID: id, RequestID: reqtrace.TraceID(ctx)})
	if cur := l.leases[id]; cur != nil {
		cur.inflight--
		return err // still present: only possible when the commit failed
	}
	// Gone — released by this commit, or expired just before it. The
	// capacity is returned either way, which is all Release promises.
	return nil
}

// dropLocked credits a lease's debits back and forgets it. Callers hold
// l.mu and handle stats themselves.
func (l *Ledger) dropLocked(ls *Lease) {
	l.debitLocked(ls.Nodes, ls.Demand.CPU, ls.linkBW, -1)
	// A committed release/expire lands while a reserve-new-alongside-old
	// handover is still awaiting quorum: return the new half's debits too,
	// or they would leak forever.
	if ls.pendingLinkBW != nil {
		l.dropHandoverLocked(ls)
	}
	delete(l.leases, ls.ID)
	l.version++
}

// dropHandoverLocked returns the reserve-new half of a handover that has
// not been finalized. Callers hold l.mu.
func (l *Ledger) dropHandoverLocked(ls *Lease) {
	l.debitLocked(ls.pendingNodes, ls.Demand.CPU, ls.pendingLinkBW, -1)
	ls.pendingNodes, ls.pendingLinkBW, ls.handoverVer = nil, nil, 0
}

// sweepLocked expires leases whose term has passed. Callers hold l.mu.
// On a replicated ledger this is a no-op: expiry is a replicated
// transition proposed by the leader's Sweep and applied everywhere in log
// order — a local drop here would fork replicas whose clocks disagree.
func (l *Ledger) sweepLocked(now time.Time) int {
	if l.opt.Replicator != nil {
		return 0
	}
	var expired []*Lease
	for _, ls := range l.leases {
		if !ls.Expiry.After(now) && !l.transitionInFlightLocked(ls) {
			expired = append(expired, ls)
		}
	}
	// Deterministic order for WAL contents and observers.
	sort.Slice(expired, func(i, j int) bool { return expired[i].ID < expired[j].ID })
	for _, ls := range expired {
		rec := Record{Op: OpExpire, ID: ls.ID}
		if l.opt.WAL != nil {
			// Expiry is derivable from timestamps at recovery; a failed
			// append must not keep dead capacity reserved, so log best-effort.
			l.opt.WAL.append(context.Background(), rec)
		}
		l.applyLocked(rec)
	}
	return len(expired)
}

// transitionInFlightLocked reports whether a lease has an uncommitted
// replication proposal against it. The TTL sweep must skip such leases —
// canonically a reserve-new-alongside-old handover (handoverVer nonzero):
// expiring the old half mid-handover would strand the reserved new debits
// and then resurrect the lease when the migrate record commits. Callers
// hold l.mu.
func (l *Ledger) transitionInFlightLocked(ls *Lease) bool {
	return ls.pending || ls.inflight > 0 || ls.handoverVer != 0
}

// Sweep expires overdue leases now and reports how many were reclaimed.
// Every ledger operation also sweeps lazily; call Sweep (or StartSweeper)
// so crashed clients' capacity returns even when no traffic arrives. On a
// replicated ledger Sweep instead *proposes* an expiry per due lease
// through the Replicator — effective only on the leader (followers get
// ErrNotLeader and reclaim nothing; the committed expiry reaches them
// through Apply).
func (l *Ledger) Sweep() int {
	l.mu.Lock()
	if r := l.opt.Replicator; r != nil {
		l.mu.Unlock()
		return l.sweepReplicated(r)
	}
	defer l.mu.Unlock()
	return l.sweepLocked(l.opt.Now())
}

// StartSweeper runs Sweep every interval until the returned stop function
// is called.
func (l *Ledger) StartSweeper(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				l.Sweep()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// infoLocked renders a lease for external consumption. Callers hold l.mu.
func (l *Ledger) infoLocked(ls *Lease) Info {
	now := l.opt.Now()
	info := Info{
		ID:         ls.ID,
		Nodes:      make([]string, len(ls.Nodes)),
		CPU:        ls.Demand.CPU,
		BW:         ls.Demand.BW,
		Request:    ls.Shape.clone(),
		CreatedAt:  ls.Created,
		ExpiresAt:  ls.Expiry,
		TTLSeconds: ls.Expiry.Sub(now).Seconds(),
	}
	for i, id := range ls.Nodes {
		info.Nodes[i] = l.g.Node(id).Name
	}
	sort.Strings(info.Nodes)
	if len(ls.linkBW) > 0 {
		info.Links = make(map[string]float64, len(ls.linkBW))
		for lid, bw := range ls.linkBW {
			link := l.g.Link(lid)
			info.Links[l.g.Node(link.A).Name+"--"+l.g.Node(link.B).Name] = bw
		}
	}
	return info
}

// Get returns one active lease.
func (l *Ledger) Get(id string) (Info, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sweepLocked(l.opt.Now())
	ls, ok := l.leases[id]
	if !ok || ls.pending {
		// A pending lease's acquire has not committed: it does not exist
		// yet as far as any reader is concerned.
		return Info{}, false
	}
	return l.infoLocked(ls), true
}

// Active lists the active leases, ordered by issue (lease-N ascending).
func (l *Ledger) Active() []Info {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sweepLocked(l.opt.Now())
	out := make([]Info, 0, len(l.leases))
	for _, ls := range l.leases {
		if ls.pending {
			continue
		}
		out = append(out, l.infoLocked(ls))
	}
	sort.Slice(out, func(i, j int) bool {
		return leaseSeq(out[i].ID) < leaseSeq(out[j].ID)
	})
	return out
}

// leaseSeq extracts N from "lease-N": -1 unless N is a non-negative int64
// written in plain decimal. Apply runs it on every record, so it must not
// allocate.
func leaseSeq(id string) int64 {
	digits, ok := strings.CutPrefix(id, "lease-")
	if !ok {
		return -1
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// AdvanceSeq raises the lease-ID counter past seq. A freshly elected
// leader calls it with the highest sequence in its replicated log, so IDs
// it issues can never collide with ones a predecessor acked (Apply also
// advances the counter record by record, but the log may contain rolled-
// back proposals whose IDs must still never be reused).
func (l *Ledger) AdvanceSeq(seq int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq >= l.nextID {
		l.nextID = seq + 1
	}
}

// Close flushes the WAL (writing a final snapshot of the active leases)
// and closes it. The ledger stays usable in memory but persists nothing
// further. Safe to call more than once.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.opt.WAL == nil {
		l.closed = true
		return nil
	}
	l.closed = true
	if err := l.opt.WAL.compact(l.activeRecordsLocked()); err != nil {
		l.opt.WAL.close()
		return err
	}
	return l.opt.WAL.close()
}

// activeRecordsLocked renders the active leases as WAL acquire records.
// Callers hold l.mu.
func (l *Ledger) activeRecordsLocked() []Record {
	out := make([]Record, 0, len(l.leases))
	for _, ls := range l.leases {
		out = append(out, acquireRecord(l.g, ls))
	}
	sort.Slice(out, func(i, j int) bool { return leaseSeq(out[i].ID) < leaseSeq(out[j].ID) })
	return out
}

// maybeCompactLocked snapshots and truncates the WAL once enough records
// accumulate. Callers hold l.mu.
func (l *Ledger) maybeCompactLocked() {
	if l.opt.WAL == nil || !l.opt.WAL.due() {
		return
	}
	// Compaction failure is not fatal: the log keeps growing and remains
	// replayable; the next threshold crossing retries.
	l.opt.WAL.compact(l.activeRecordsLocked())
}

// recover replays the WAL into the ledger: unexpired leases are
// re-admitted without re-running admission control (they were admitted
// before the restart) by the same install a follower's Apply runs, with
// link debits recomputed from the current graph's routes. Leases naming
// nodes absent from the topology, or whose expiry has passed, are skipped
// and counted.
func (l *Ledger) recover() error {
	active, maxSeq, err := l.opt.WAL.load()
	if err != nil {
		return fmt.Errorf("lease: wal recovery: %w", err)
	}
	now := l.opt.Now()
	l.nextID = maxSeq + 1
	for _, rec := range active {
		if !time.UnixMilli(rec.ExpiryUnixMS).After(now) {
			l.stats.RecoverySkipped++
			continue
		}
		if l.installRecordLocked(rec) != nil {
			l.stats.Recovered++
		}
	}
	return nil
}

package selectsvc

import (
	"sync"
	"time"

	"nodeselect/internal/core"
	"nodeselect/internal/topology"
)

// maxTraceRounds bounds the per-decision sweep trace so a pathological
// topology cannot bloat the audit ring; the truncation is flagged.
const maxTraceRounds = 128

// DecisionCandidate is one candidate node set considered during a sweep
// round, summarized as its size and objective score.
type DecisionCandidate struct {
	// Size is the candidate node-set size (always the requested M).
	Size int `json:"size"`
	// Score is the objective value the candidate was scored with.
	Score float64 `json:"score"`
}

// DecisionRound is one edge-deletion round of the selection sweep, the
// audit-log form of core.SweepStep.
type DecisionRound struct {
	// Round is the sweep round (0 = initial whole-graph evaluation).
	Round int `json:"round"`
	// Threshold is the edge metric at which this round's tier was
	// removed.
	Threshold float64 `json:"threshold"`
	// RemovedLinks names the links deleted this round as "a--b" pairs.
	RemovedLinks []string `json:"removed_links,omitempty"`
	// Candidates summarizes every node set scored this round.
	Candidates []DecisionCandidate `json:"candidates,omitempty"`
	// Improved reports whether this round produced a new best.
	Improved bool `json:"improved"`
}

// Decision is one audited placement request: what was asked, what was
// answered, how long it took, and — for the sweep algorithms — the
// round-by-round trace of why (paper Figures 2–3 made inspectable).
type Decision struct {
	// ID increases by one per request, never reused.
	ID int64 `json:"id"`
	// Kind distinguishes audit entries: empty for placement requests,
	// "rebalance_propose" / "rebalance_apply" / "rebalance_apply_failed"
	// for re-placement controller actions.
	Kind string `json:"kind,omitempty"`
	// RequestID is the request's correlation ID (the X-Request-ID header,
	// echoed or minted): the key that links this entry to the client's
	// response and to GET /traces/{id}. Empty for decisions with no
	// originating request, like auto-applied rebalance handovers raised by
	// the background poll.
	RequestID string `json:"request_id,omitempty"`
	// Wall is the server wall-clock time of the request.
	Wall time.Time `json:"wall"`
	// MeasuredAt is the measurement clock of the snapshot answered from
	// (0 when no snapshot was available).
	MeasuredAt float64 `json:"measured_at"`
	// Algo and Mode are the resolved algorithm and query mode.
	Algo string `json:"algo"`
	Mode string `json:"mode"`
	// M is the requested node count (for spec requests, the spec total).
	M int `json:"m"`
	// Spec names the application specification, for spec requests.
	Spec string `json:"spec,omitempty"`
	// Nodes is the returned placement (empty on error). For rebalance
	// entries it is the proposed destination set, with FromNodes the set
	// the lease held and Gain the expected relative improvement.
	Nodes     []string `json:"nodes,omitempty"`
	FromNodes []string `json:"from_nodes,omitempty"`
	Gain      float64  `json:"gain,omitempty"`
	// MinCPU, PairMinBW and MinResource score the returned placement as
	// in SelectResponse.
	MinCPU      float64 `json:"min_cpu,omitempty"`
	PairMinBW   float64 `json:"pair_min_bw,omitempty"`
	MinResource float64 `json:"min_resource,omitempty"`
	// Degraded marks a decision computed while part of the measurement
	// fleet was stale — some inputs were last-known-good values, with
	// DataAgeSeconds the age of the oldest of them.
	Degraded       bool    `json:"degraded,omitempty"`
	DataAgeSeconds float64 `json:"data_age_seconds,omitempty"`
	// LeaseID names the reservation issued for a leased request.
	LeaseID string `json:"lease_id,omitempty"`
	// BatchID and BatchSize report which epoch-batch admission commit
	// carried a leased request, and how many requests shared it. Set only
	// when the service runs with Config.BatchWindow > 0 — rejected leased
	// requests carry them too (the rejection happened inside a batch's
	// solve).
	BatchID   string `json:"batch_id,omitempty"`
	BatchSize int    `json:"batch_size,omitempty"`
	// DurationSeconds is the wall-clock time spent serving the request.
	DurationSeconds float64 `json:"duration_seconds"`
	// Error carries the failure, with ErrorClass one of bad_request,
	// no_data, stale, infeasible, rejected, not_found or internal.
	Error      string `json:"error,omitempty"`
	ErrorClass string `json:"error_class,omitempty"`
	// Bottleneck names the binding resource of an admission rejection
	// ("node" name or "a--b" link).
	Bottleneck string `json:"bottleneck,omitempty"`
	// Cache reports how the plan cache served this decision: "hit" (an
	// identical request was already answered under the same snapshot
	// epoch and ledger version), "miss" (computed and cached), or
	// "bypass" (leased, spec, or randomized requests, which are never
	// cached). Empty when the cache is disabled.
	Cache string `json:"cache,omitempty"`
	// Hierarchy reports how hierarchical selection answered this plain
	// select: "quotient" (the sweep ran over the partition's clusters)
	// or "fallback" (the request fell outside the class that runs
	// grouped and the sweep ran ungrouped). Empty when the
	// service runs without -hierarchy or for leased/spec requests.
	Hierarchy string `json:"hierarchy,omitempty"`
	// Trace is the sweep's round log, oldest first.
	Trace []DecisionRound `json:"trace,omitempty"`
	// TraceTruncated marks a trace cut off at maxTraceRounds rounds.
	TraceTruncated bool `json:"trace_truncated,omitempty"`
}

// auditRing retains the most recent decisions in a fixed-size ring.
type auditRing struct {
	mu    sync.Mutex
	buf   []Decision
	total int64 // decisions ever recorded; also the next ID
}

func newAuditRing(size int) *auditRing {
	return &auditRing{buf: make([]Decision, 0, size)}
}

// add stamps d with the next ID and records it, evicting the oldest
// entry when full. It returns the assigned ID.
func (r *auditRing) add(d Decision) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	d.ID = r.total
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, d)
	} else {
		r.buf[int(d.ID)%cap(r.buf)] = d
	}
	return d.ID
}

// recent returns up to n decisions, newest first (n <= 0 means all
// retained).
func (r *auditRing) recent(n int) []Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := len(r.buf)
	if n <= 0 || n > kept {
		n = kept
	}
	out := make([]Decision, 0, n)
	for i := 0; i < n; i++ {
		idx := int((r.total-1-int64(i))%int64(cap(r.buf))+int64(cap(r.buf))) % cap(r.buf)
		out = append(out, r.buf[idx])
	}
	return out
}

// size reports how many decisions have ever been recorded.
func (r *auditRing) size() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// decisionRounds converts sweep steps into the audit form, naming links
// and truncating at maxTraceRounds.
func decisionRounds(g *topology.Graph, steps []core.SweepStep) (rounds []DecisionRound, truncated bool) {
	if len(steps) > maxTraceRounds {
		steps, truncated = steps[:maxTraceRounds], true
	}
	rounds = make([]DecisionRound, len(steps))
	for i, st := range steps {
		dr := DecisionRound{Round: st.Round, Threshold: st.Threshold, Improved: st.Improved}
		for _, lid := range st.RemovedLinks {
			l := g.Link(lid)
			dr.RemovedLinks = append(dr.RemovedLinks, g.Node(l.A).Name+"--"+g.Node(l.B).Name)
		}
		for _, c := range st.Candidates {
			dr.Candidates = append(dr.Candidates, DecisionCandidate{Size: len(c.Nodes), Score: c.Score})
		}
		rounds[i] = dr
	}
	return rounds, truncated
}

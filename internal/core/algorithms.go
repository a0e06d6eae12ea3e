package core

import (
	"fmt"
	"math"
	"slices"

	"nodeselect/internal/topology"
)

// Options tunes algorithm behaviour. The zero value gives the strongest
// variant of each procedure; the Paper* fields reproduce the pseudocode of
// Figures 2 and 3 literally, for fidelity comparisons and ablation studies.
type Options struct {
	// PaperEarlyStop makes Balanced stop as soon as one edge-removal
	// round fails to improve minresource, exactly as Figure 3 step 4.
	// The default (false) continues removing bottleneck edges through
	// every threshold and keeps the best set seen, which dominates the
	// early-stopping variant and is optimal on trees.
	PaperEarlyStop bool

	// PaperSingleEdgeRemoval removes exactly one minimum-bandwidth edge
	// per round, as the pseudocode literally states. The default (false)
	// removes every edge tied for the minimum, which is required for the
	// greedy argument to hold when several links carry equal load.
	PaperSingleEdgeRemoval bool

	// Observer, when non-nil, receives one SweepStep per evaluation round
	// of the sweep procedures (MaxBandwidth, Balanced): which edges were
	// deleted at which threshold, every candidate node set scored, and
	// whether the best improved. It is the decision audit hook a service
	// answers "why these nodes" with. A nil Observer costs nothing.
	Observer func(SweepStep)
}

// MaxCompute selects the m eligible compute nodes with the highest
// available computation capacity (§3.2 "Maximize computation capacity").
// With a bandwidth floor set, the selected nodes must additionally lie in a
// single component of the graph restricted to links satisfying the floor,
// and the procedure maximizes the minimum CPU under that constraint.
func MaxCompute(s *topology.Snapshot, req Request) (Result, error) {
	eligible, err := req.validate(s)
	if err != nil {
		return Result{}, err
	}
	pinned := req.pinnedSet()

	if req.MinBW <= 0 && req.MaxPairLatency <= 0 && len(req.Pinned) == 0 {
		// The simple case of §3.2: pick the m highest-cpu nodes.
		nodes := topCPUNodes(s, eligible, req.M, nil)
		return Score(s, nodes, req), nil
	}

	// Constrained case: nodes must be mutually reachable over links that
	// satisfy the bandwidth floor and the set must contain the pinned
	// nodes. Evaluate each qualifying component and keep the best
	// (highest minimum CPU, ties by higher pairwise bandwidth).
	alive := func(l int) bool { return req.linkUsable(s, l) }
	var best Result
	found := false
	for _, comp := range s.Graph.Components(alive) {
		inComp := make(map[int]bool, len(comp))
		for _, id := range comp {
			inComp[id] = true
		}
		if !containsAll(comp, pinned) {
			continue
		}
		cands := filterNodes(eligible, func(id int) bool { return inComp[id] })
		for _, pool := range candidatePools(s, cands, req) {
			nodes := topCPUNodes(s, pool, req.M, pinned)
			if nodes == nil || !pairLatencyOK(s, nodes, req) {
				continue
			}
			res := Score(s, nodes, req)
			if !found || res.MinCPU > best.MinCPU ||
				(res.MinCPU == best.MinCPU && res.PairMinBW > best.PairMinBW) {
				best = res
				found = true
			}
		}
	}
	if !found {
		return Result{}, fmt.Errorf("%w: no component satisfies the bandwidth floor with %d nodes",
			ErrNoFeasibleSet, req.M)
	}
	return best, nil
}

// MaxBandwidth implements the paper's Figure 2: select m compute nodes
// maximizing the minimum available bandwidth between any pair of selected
// nodes. Edges are deleted in increasing order of available bandwidth while
// a connected component with at least m eligible compute nodes survives;
// the final surviving component supplies the selection.
//
// Within the final component any m nodes meet the bandwidth guarantee
// (Figure 2 says "any m compute nodes in L"); this implementation picks the
// m with the highest CPU, which preserves the guarantee and is a strictly
// better tie-break.
func MaxBandwidth(s *topology.Snapshot, req Request) (Result, error) {
	return Sweep(s, req, Options{}, false, nil)
}

// MaxBandwidthOpt is MaxBandwidth with explicit Options.
func MaxBandwidthOpt(s *topology.Snapshot, req Request, opts Options) (Result, error) {
	return Sweep(s, req, opts, false, nil)
}

// Balanced implements the paper's Figure 3: select m compute nodes
// maximizing minresource = min(min fractional cpu, priority * min
// fractional bandwidth). Bottleneck edges are deleted in increasing order
// of fractional availability; after each round every surviving component
// with at least m eligible compute nodes is scored with its best-CPU m
// nodes, and the best-scoring set over the whole sweep is returned.
func Balanced(s *topology.Snapshot, req Request) (Result, error) {
	return Sweep(s, req, Options{}, true, nil)
}

// BalancedOpt is Balanced with explicit Options (e.g. the paper-faithful
// early-stopping variant).
func BalancedOpt(s *topology.Snapshot, req Request, opts Options) (Result, error) {
	return Sweep(s, req, opts, true, nil)
}

// poolCandidates enumerates the candidate node sets one component
// contributes to a sweep round: for every pool of the component's sorted
// eligible candidates, the top-CPU m nodes, filtered by the latency
// ceiling and the bandwidth floor, scored with the round objective. The
// literal loop and, for the shapes whose pools depend on member identity,
// the union-find sweep both funnel through this one function so their
// candidate streams — values and order — cannot diverge. A non-nil memo
// caches the pure pool-set -> (result, score, keep) evaluation across
// components: consecutive components of the merge hierarchy usually
// re-select the same top-CPU node set. The yielded Result carries its own
// copy of the set only without a memo (the literal loop keeps it); with
// one, the caller asks the memo for the one Result it returns.
func poolCandidates(s *topology.Snapshot, cands []int, req Request, pinned map[int]bool,
	balanced bool, priority float64, memo *poolMemo,
	yield func(nodes []int, score float64, res Result)) {
	for _, pool := range candidatePools(s, cands, req) {
		nodes := topCPUNodes(s, pool, req.M, pinned)
		if nodes == nil {
			continue
		}
		var e poolEval
		if memo != nil {
			e = memo.evals[memo.eval(s, nodes, req, balanced, priority)]
		} else {
			e = evalSorted(s, nodes, req, balanced, priority)
			e.res.Nodes = slices.Clone(nodes)
		}
		if e.keep {
			yield(nodes, e.score, e.res)
		}
	}
}

// poolEval is the outcome of scoring one concrete node set. In a memo the
// set itself is arena[lo:hi] and res.Nodes stays nil until result clones it
// out; next chains the evaluations whose sets share a hash.
type poolEval struct {
	res          Result
	score        float64
	keep         bool
	lo, hi, next int32
}

// poolMemo memoizes evalSorted by node set. Every scored set's IDs lie in
// one arena, so scoring a set allocates nothing: index maps the hash of a
// set's IDs to the newest evaluation under that hash, a lookup confirms
// against the arena and follows next on a mismatch. Only result hands a set
// to a caller, as a copy.
type poolMemo struct {
	index map[uint64]int32
	evals []poolEval
	arena []int
}

// hashNodes is FNV-1a over the IDs of a set.
func hashNodes(nodes []int) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range nodes {
		h = (h ^ uint64(id)) * 1099511628211
	}
	return h
}

// eval returns the index in evals of one sorted node set's evaluation,
// computing it on the first request.
func (m *poolMemo) eval(s *topology.Snapshot, nodes []int, req Request, balanced bool, priority float64) int {
	h := hashNodes(nodes)
	head, ok := m.index[h]
	if !ok {
		head = -1
	}
	for i := head; i >= 0; i = m.evals[i].next {
		if e := &m.evals[i]; slices.Equal(m.arena[e.lo:e.hi], nodes) {
			return int(i)
		}
	}
	e := evalSorted(s, nodes, req, balanced, priority)
	e.lo, e.next = int32(len(m.arena)), head
	m.arena = append(m.arena, nodes...)
	e.hi = int32(len(m.arena))
	m.evals = append(m.evals, e)
	m.index[h] = int32(len(m.evals) - 1)
	return len(m.evals) - 1
}

// result returns evaluation i's Result with its node set cloned out of the
// arena. The clone is made once: the sweep's winner and, under an observer,
// every round that shows the candidate share it.
func (m *poolMemo) result(i int) Result {
	e := &m.evals[i]
	if e.res.Nodes == nil {
		e.res.Nodes = slices.Clone(m.arena[e.lo:e.hi])
	}
	return e.res
}

// reset forgets every evaluation and drops the references to their Results.
func (m *poolMemo) reset() {
	clear(m.index)
	clear(m.evals)
	m.evals, m.arena = m.evals[:0], m.arena[:0]
}

// evalSorted applies the latency ceiling, scores the set (sorted by ID;
// the Result carries no Nodes), and applies the bandwidth floor — the pure
// per-candidate part of a sweep round.
func evalSorted(s *topology.Snapshot, nodes []int, req Request, balanced bool, priority float64) poolEval {
	if !pairLatencyOK(s, nodes, req) {
		return poolEval{}
	}
	res := scoreSorted(s, nodes, req)
	if req.MinBW > 0 && res.PairMinBW < req.MinBW {
		return poolEval{}
	}
	var score float64
	if balanced {
		score = math.Min(res.MinCPU, priority*res.MinBWFactor)
	} else {
		score = res.PairMinBW
	}
	return poolEval{res: res, score: score, keep: true}
}

// referenceSweepSelect is the literal bottleneck-edge-deletion sweep behind
// MaxBandwidth (balanced = false) and Balanced (balanced = true).
//
// The sweep enumerates candidate sets exactly as Figures 2 and 3 do —
// delete edges in increasing order of available (fractional) bandwidth and
// take the best-CPU m compute nodes of every surviving component — but
// scores each candidate by its *actual* static-route metrics (pairwise
// bottleneck bandwidth; the balanced minresource) rather than by the
// component's minimum alive edge. On trees the two scores coincide at the
// decisive thresholds, so the tree-optimality guarantee of the paper's
// argument is preserved (and verified against brute force in the tests);
// on cyclic static-routing topologies the actual-score form avoids
// crediting a component with connectivity its fixed routes cannot use.
func referenceSweepSelect(s *topology.Snapshot, req Request, opts Options, balanced bool) (Result, error) {
	eligible, err := req.validate(s)
	if err != nil {
		return Result{}, err
	}
	g := s.Graph
	pinned := req.pinnedSet()
	isEligible := make(map[int]bool, len(eligible))
	for _, id := range eligible {
		isEligible[id] = true
	}
	priority := req.Priority()

	// Edge metric: absolute available bandwidth for MaxBandwidth,
	// fractional availability for Balanced.
	metric := func(l int) float64 {
		if balanced {
			return LinkFactor(s, l, req)
		}
		return s.AvailBW[l]
	}

	alive := make([]bool, g.NumLinks())
	for l := range alive {
		alive[l] = req.linkUsable(s, l)
	}
	aliveFn := func(l int) bool { return alive[l] }

	// Edges sorted by increasing metric, for removal order.
	order := g.OrderLinks(aliveFn, metric)

	var best Result
	bestScore := math.Inf(-1)
	found := false

	// evaluate scores all qualifying components of the current graph and
	// reports whether any improved on the best so far. A non-nil step
	// records every candidate for the observer.
	evaluate := func(step *SweepStep) bool {
		improved := false
		for _, comp := range g.Components(aliveFn) {
			if !containsAll(comp, pinned) {
				continue
			}
			cands := filterNodes(comp, func(id int) bool { return isEligible[id] })
			poolCandidates(s, cands, req, pinned, balanced, priority, nil,
				func(nodes []int, score float64, res Result) {
					if step != nil {
						step.Candidates = append(step.Candidates, SweepCandidate{Nodes: nodes, Score: score})
					}
					if !found || score > bestScore {
						bestScore = score
						best = res
						found = true
						improved = true
					}
				})
		}
		if step != nil {
			step.Improved = improved
		}
		return improved
	}

	// observed wraps evaluate with SweepStep construction and delivery
	// when an observer is installed.
	observed := func(round int, threshold float64, removed []int) bool {
		if opts.Observer == nil {
			return evaluate(nil)
		}
		step := SweepStep{Round: round, Threshold: threshold, RemovedLinks: removed}
		improved := evaluate(&step)
		opts.Observer(step)
		return improved
	}

	observed(0, 0, nil) // step 1: initial selection on the full graph

	round := 1
	for i := 0; i < len(order); {
		// Remove the minimum-metric edge — and, unless reproducing the
		// paper's literal single-edge removal, all edges tied with it.
		v := metric(order[i])
		var removed []int
		alive[order[i]] = false
		if opts.Observer != nil {
			removed = append(removed, order[i])
		}
		i++
		if !opts.PaperSingleEdgeRemoval {
			for i < len(order) && metric(order[i]) == v {
				alive[order[i]] = false
				if opts.Observer != nil {
					removed = append(removed, order[i])
				}
				i++
			}
		}
		improved := observed(round, v, removed)
		round++
		if opts.PaperEarlyStop && !improved {
			break
		}
	}

	if !found {
		return Result{}, fmt.Errorf("%w: no component provides %d connected eligible compute nodes",
			ErrNoFeasibleSet, req.M)
	}
	return best, nil
}

package core

import (
	"fmt"
	"math"
	"sort"

	"nodeselect/internal/topology"
)

// sweepComp is one member of the laminar component family the fast sweep
// discovers: a component of the graph restricted to edges above some metric
// threshold, alive over the reference rounds [birth, death], that yielded
// at least one candidate node set. birth stays 0 for the never-absorbed
// final roots; death is k for the initial singletons.
type sweepComp struct {
	birth, death int
	minID        int
	score        float64
	res          Result
	cands        []SweepCandidate // retained only for the observer replay
}

// sweepTier is one group of equal-metric links in the removal order.
// Reference round j (1..k) is the graph with tiers 1..j removed; round 0 is
// the full alive graph, round k the edgeless one.
type sweepTier struct {
	value float64
	links []int // ascending (metric, id): a sub-slice of the removal order
}

// fastSweepSelect is the union-find reformulation of the Figure 2/3
// bottleneck sweep. Instead of deleting edges in ascending metric order and
// recomputing connected components after every round — O(E·(V+E)) — it adds
// the same edges in *descending* order to a disjoint-set forest (the classic
// Kruskal maximum-bottleneck construction). Every component the deletion
// loop ever evaluates appears exactly once as a merge state of the forest,
// so each member of that laminar family is scored a single time, with the
// pure pool evaluation additionally memoized by node set.
//
// Equivalence with referenceSweepSelect is exact, not approximate. The
// reference's winner is the first candidate, in (round ascending, component
// min-node-ID ascending, pool order) stream order, to strictly exceed the
// running best — i.e. the earliest-seen candidate achieving the global
// maximum score. A component alive in reference rounds [birth, death] shows
// the same candidates with the same scores at every one of those rounds, so
// the earliest appearance of a component's best candidate is its birth
// round. The fast path therefore keeps, per family component, the first
// in-pool-order candidate achieving the component maximum, and picks the
// overall winner by (score descending, birth ascending, min node ID
// ascending). Two distinct components with equal birth coexist at that
// round and are disjoint, hence have distinct min node IDs; nested
// components have distinct births — the order is total, and it reproduces
// the reference stream order exactly. TestFastPathEquivalence and
// FuzzSweepEquivalence hold the two implementations to that contract.
//
// When an Observer is installed the per-component candidate streams are
// retained and the reference's SweepStep sequence is replayed verbatim from
// the alive intervals, so decision audit traces are bit-identical too.
func fastSweepSelect(s *topology.Snapshot, req Request, opts Options, balanced bool) (Result, error) {
	eligible, err := req.validate(s)
	if err != nil {
		return Result{}, err
	}
	g := s.Graph
	pinned := req.pinnedSet()
	isEligible := make([]bool, g.NumNodes())
	for _, id := range eligible {
		isEligible[id] = true
	}
	priority := req.Priority()

	metricOf := make([]float64, g.NumLinks())
	for l := range metricOf {
		if balanced {
			metricOf[l] = LinkFactor(s, l, req)
		} else {
			metricOf[l] = s.AvailBW[l]
		}
	}
	order := g.OrderLinks(func(l int) bool { return req.linkUsable(s, l) },
		func(l int) float64 { return metricOf[l] })

	var tiers []sweepTier
	for i := 0; i < len(order); {
		j := i
		v := metricOf[order[i]]
		for j < len(order) && metricOf[order[j]] == v {
			j++
		}
		tiers = append(tiers, sweepTier{value: v, links: order[i:j]})
		i = j
	}
	k := len(tiers)

	var recs []sweepComp

	u := topology.NewUnionFind(g.NumNodes())
	eligCnt := make([]int, g.NumNodes())
	pinCnt := make([]int, g.NumNodes())
	for id := 0; id < g.NumNodes(); id++ {
		if isEligible[id] {
			eligCnt[id] = 1
		}
		if pinned[id] {
			pinCnt[id] = 1
		}
	}

	// cur[root] is the index in recs of the record describing root's current
	// component state, or -1. Intermediate states formed mid-tier are never
	// recorded — they are not components of any reference round.
	cur := make([]int, g.NumNodes())
	for i := range cur {
		cur[i] = -1
	}

	memo := &poolMemo{evals: make(map[string]poolEval)}
	candBuf := make([]int, 0, g.NumNodes())

	// evaluate scores root's component as of reference round death and, if
	// it yields any candidate, appends a record. The candidate stream is
	// identical to the reference's for this component: eligible members in
	// ascending ID order through the shared poolCandidates helper.
	evaluate := func(root, death int) {
		if pinCnt[root] != len(pinned) || eligCnt[root] < req.M {
			return // reference skips (containsAll) or every pool comes up short
		}
		candBuf = candBuf[:0]
		for _, id := range u.Members(root) {
			if isEligible[id] {
				candBuf = append(candBuf, id)
			}
		}
		sort.Ints(candBuf)
		rec := sweepComp{death: death, minID: u.MinID(root), score: math.Inf(-1)}
		found := false
		poolCandidates(s, candBuf, req, pinned, balanced, priority, memo,
			func(nodes []int, score float64, res Result) {
				if opts.Observer != nil {
					rec.cands = append(rec.cands, SweepCandidate{Nodes: nodes, Score: score})
				}
				if !found || score > rec.score {
					rec.score, rec.res, found = score, res, true
				}
			})
		if found {
			recs = append(recs, rec)
			cur[root] = len(recs) - 1
		}
	}

	// Round k: every node is its own component.
	for id := 0; id < g.NumNodes(); id++ {
		evaluate(id, k)
	}

	// Add tiers back in descending metric order. After absorbing tier t the
	// forest matches reference round t-1.
	dirtyMark := make([]int, g.NumNodes())
	for i := range dirtyMark {
		dirtyMark[i] = -1
	}
	var dirty []int
	for t := k; t >= 1; t-- {
		dirty = dirty[:0]
		for _, l := range tiers[t-1].links {
			lk := g.Link(l)
			winner, loser := u.Union(lk.A, lk.B)
			if loser < 0 {
				continue // cycle edge: component unchanged
			}
			// Both pre-merge states die entering round t-1; they were last
			// alive at round t.
			for _, r := range [2]int{winner, loser} {
				if cur[r] >= 0 {
					recs[cur[r]].birth = t
					cur[r] = -1
				}
			}
			eligCnt[winner] += eligCnt[loser]
			pinCnt[winner] += pinCnt[loser]
			if dirtyMark[winner] != t {
				dirtyMark[winner] = t
				dirty = append(dirty, winner)
			}
		}
		for _, r := range dirty {
			if u.Find(r) != r {
				continue // absorbed by a later merge within the same tier
			}
			evaluate(r, t-1)
		}
	}

	if opts.Observer != nil {
		replaySweep(opts.Observer, recs, tiers)
	}

	// The winner: maximum score, earliest birth round, smallest component
	// min node ID — the reference's first-strict-improvement order.
	best := -1
	for i := range recs {
		r := &recs[i]
		if best < 0 {
			best = i
			continue
		}
		b := &recs[best]
		if r.score > b.score ||
			(r.score == b.score && (r.birth < b.birth ||
				(r.birth == b.birth && r.minID < b.minID))) {
			best = i
		}
	}
	if best < 0 {
		return Result{}, fmt.Errorf("%w: no component provides %d connected eligible compute nodes",
			ErrNoFeasibleSet, req.M)
	}
	return recs[best].res, nil
}

// replaySweep reconstructs the reference implementation's SweepStep
// sequence from the recorded component family. For each round 0..k the
// components alive at that round contribute their candidate streams in
// ascending min-node-ID order (the Components traversal order of the
// reference), and the Improved flag is recovered by replaying the running
// global best over the concatenated stream.
func replaySweep(observer func(SweepStep), recs []sweepComp, tiers []sweepTier) {
	byMinID := make([]*sweepComp, len(recs))
	for i := range recs {
		byMinID[i] = &recs[i]
	}
	sort.Slice(byMinID, func(i, j int) bool { return byMinID[i].minID < byMinID[j].minID })

	runningBest := math.Inf(-1)
	found := false
	for round := 0; round <= len(tiers); round++ {
		step := SweepStep{Round: round}
		if round > 0 {
			tr := tiers[round-1]
			step.Threshold = tr.value
			step.RemovedLinks = make([]int, len(tr.links))
			copy(step.RemovedLinks, tr.links)
		}
		for _, rec := range byMinID {
			if rec.birth > round || round > rec.death {
				continue
			}
			for _, c := range rec.cands {
				step.Candidates = append(step.Candidates, c)
				if !found || c.Score > runningBest {
					runningBest = c.Score
					found = true
					step.Improved = true
				}
			}
		}
		observer(step)
	}
}

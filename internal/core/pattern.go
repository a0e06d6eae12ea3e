package core

import (
	"fmt"
	"math"
	"sort"

	"nodeselect/internal/topology"
)

// Pattern identifies a communication structure for pattern-aware selection.
// §3.4 ("Custom execution patterns") notes that the base procedures attach
// equal importance to all nodes and communication paths, which is
// inaccurate for, e.g., client-server applications; this file implements
// the extension the paper leaves as ongoing work.
type Pattern int

const (
	// PatternAllToAll weighs every node pair equally — the base
	// algorithms' assumption; BalancedPattern then reduces to Balanced.
	PatternAllToAll Pattern = iota
	// PatternMasterSlave weighs only master-to-worker paths, and assigns
	// the master role to the node with the maximum available computation
	// capacity (the paper's server example), or to the first pinned node
	// when one is given.
	PatternMasterSlave
	// PatternPipeline weighs only consecutive pairs of the selected set.
	// Stages are assigned along a bandwidth-greedy chain through the
	// selected nodes.
	PatternPipeline
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case PatternAllToAll:
		return "all-to-all"
	case PatternMasterSlave:
		return "master-slave"
	case PatternPipeline:
		return "pipeline"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// PatternResult extends Result with the role assignment the pattern
// implies.
type PatternResult struct {
	Result
	// Master is the node assigned the master/server role
	// (PatternMasterSlave only; -1 otherwise).
	Master int
	// Order is the stage order (PatternPipeline only; nil otherwise).
	Order []int
}

// ScorePattern evaluates a node set under a communication pattern: the
// bandwidth terms of the objective range only over the pairs the pattern
// deems significant.
func ScorePattern(s *topology.Snapshot, nodes []int, req Request, pattern Pattern) PatternResult {
	switch pattern {
	case PatternAllToAll:
		return PatternResult{Result: Score(s, nodes, req), Master: -1}
	case PatternMasterSlave:
		master := pickMaster(s, nodes, req)
		var pairs [][2]int
		for _, id := range nodes {
			if id != master {
				pairs = append(pairs, [2]int{master, id})
			}
		}
		res := scorePairs(s, nodes, req, pairs)
		return PatternResult{Result: res, Master: master}
	case PatternPipeline:
		order := chainOrder(s, nodes)
		var pairs [][2]int
		for i := 0; i+1 < len(order); i++ {
			pairs = append(pairs, [2]int{order[i], order[i+1]})
		}
		res := scorePairs(s, nodes, req, pairs)
		return PatternResult{Result: res, Master: -1, Order: order}
	default:
		panic(fmt.Sprintf("core: unknown pattern %v", pattern))
	}
}

// pickMaster returns the pinned master if any, else the node with maximum
// effective CPU (ties to the lowest ID).
func pickMaster(s *topology.Snapshot, nodes []int, req Request) int {
	if len(req.Pinned) > 0 {
		for _, id := range nodes {
			if id == req.Pinned[0] {
				return id
			}
		}
	}
	best := nodes[0]
	for _, id := range nodes[1:] {
		if c := s.EffectiveCPU(id); c > s.EffectiveCPU(best) ||
			(c == s.EffectiveCPU(best) && id < best) {
			best = id
		}
	}
	return best
}

// scorePairs is Score restricted to an explicit pair list.
func scorePairs(s *topology.Snapshot, nodes []int, req Request, pairs [][2]int) Result {
	res := Result{
		Nodes:       append([]int(nil), nodes...),
		MinCPU:      math.Inf(1),
		PairMinBW:   math.Inf(1),
		MinBWFactor: math.Inf(1),
	}
	sort.Ints(res.Nodes)
	for _, id := range res.Nodes {
		if cpu := s.EffectiveCPU(id); cpu < res.MinCPU {
			res.MinCPU = cpu
		}
	}
	for _, pr := range pairs {
		for _, lid := range s.Graph.Route(pr[0], pr[1]) {
			if bw := s.AvailBW[lid]; bw < res.PairMinBW {
				res.PairMinBW = bw
			}
			if f := linkFactor(s, lid, req); f < res.MinBWFactor {
				res.MinBWFactor = f
			}
		}
		if lat := s.Graph.PathLatency(pr[0], pr[1]); lat > res.MaxPairLatency {
			res.MaxPairLatency = lat
		}
	}
	res.MinResource = math.Min(res.MinCPU, req.priority()*res.MinBWFactor)
	return res
}

// chainOrder orders the nodes along a bandwidth-greedy chain: starting
// from the best-connected pair, it repeatedly extends whichever chain end
// has the best remaining link. Pairs are ranked by available bandwidth
// first and path latency second, so that on a LAN where many pairs tie at
// full bandwidth the chain follows physical proximity instead of
// zig-zagging across routers. This is a heuristic for the (NP-hard)
// max-min Hamiltonian path underlying optimal pipeline stage placement.
func chainOrder(s *topology.Snapshot, nodes []int) []int {
	n := len(nodes)
	if n <= 2 {
		return append([]int(nil), nodes...)
	}
	// better reports whether pair quality (w1, l1) beats (w2, l2):
	// higher bandwidth, then lower latency.
	better := func(w1, l1, w2, l2 float64) bool {
		if w1 != w2 {
			return w1 > w2
		}
		return l1 < l2
	}
	bw := func(a, b int) float64 { return s.PairBandwidth(a, b) }
	lat := func(a, b int) float64 { return s.Graph.PathLatency(a, b) }

	// Best starting pair.
	bi, bj := 0, 1
	bestBW, bestLat := math.Inf(-1), math.Inf(1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w, l := bw(nodes[i], nodes[j]), lat(nodes[i], nodes[j])
			if better(w, l, bestBW, bestLat) {
				bestBW, bestLat, bi, bj = w, l, i, j
			}
		}
	}
	used := make([]bool, n)
	used[bi], used[bj] = true, true
	chain := []int{nodes[bi], nodes[bj]}
	for len(chain) < n {
		head, tail := chain[0], chain[len(chain)-1]
		bestIdx, bestEnd := -1, 0
		bw0, lat0 := math.Inf(-1), math.Inf(1)
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			// Prefer extending the tail on full ties so a physical chain
			// is traversed in order rather than alternated.
			w, l, end := bw(head, nodes[i]), lat(head, nodes[i]), 0
			if wt, lt := bw(tail, nodes[i]), lat(tail, nodes[i]); !better(w, l, wt, lt) {
				w, l, end = wt, lt, 1
			}
			if better(w, l, bw0, lat0) {
				bw0, lat0, bestIdx, bestEnd = w, l, i, end
			}
		}
		used[bestIdx] = true
		if bestEnd == 0 {
			chain = append([]int{nodes[bestIdx]}, chain...)
		} else {
			chain = append(chain, nodes[bestIdx])
		}
	}
	return chain
}

// BalancedPattern selects m nodes maximizing the pattern-aware balanced
// objective. It enumerates components with the same bottleneck sweep as
// Balanced, but scores each one's candidate with ScorePattern,
// so, e.g., a master-slave application is not penalized for poor
// worker-to-worker paths it never uses.
func BalancedPattern(s *topology.Snapshot, req Request, pattern Pattern) (PatternResult, error) {
	if pattern == PatternAllToAll {
		res, err := Balanced(s, req)
		return PatternResult{Result: res, Master: -1}, err
	}
	sc := getScratch()
	defer putScratch(sc)
	defer sc.reset()

	// One pool per component: its best-CPU m members, pinned first. The
	// floor and the ceiling bind the pattern's pairs only, so they filter
	// after scoring.
	pinned := req.pinnedSet()
	var picks []PatternResult
	recs, err := sc.enumerate(s, req, nil, true, func(root int) (float64, int, bool) {
		nodes := topCPUNodes(s, sc.members(root), req.M, pinned)
		if nodes == nil {
			return 0, 0, false
		}
		res := ScorePattern(s, nodes, req, pattern)
		if req.MinBW > 0 && res.PairMinBW < req.MinBW {
			return 0, 0, false
		}
		if req.MaxPairLatency > 0 && res.MaxPairLatency > req.MaxPairLatency {
			return 0, 0, false
		}
		picks = append(picks, res)
		return res.MinResource, len(picks) - 1, true
	})
	if err != nil {
		return PatternResult{}, err
	}
	best := winner(recs)
	if best < 0 {
		return PatternResult{}, errNoComponent(req.M)
	}
	return picks[recs[best].tag], nil
}

// BruteForcePattern exhaustively maximizes the pattern objective; the
// testing oracle for BalancedPattern.
func BruteForcePattern(s *topology.Snapshot, req Request, pattern Pattern) (PatternResult, error) {
	eligible, err := req.validate(s)
	if err != nil {
		return PatternResult{}, err
	}
	pinned := req.pinnedSet()
	var free, base []int
	for _, id := range eligible {
		if pinned[id] {
			base = append(base, id)
		} else {
			free = append(free, id)
		}
	}
	need := req.M - len(base)
	var best PatternResult
	found := false
	combo := make([]int, 0, req.M)
	var rec func(start, remaining int)
	rec = func(start, remaining int) {
		if remaining == 0 {
			nodes := append(append([]int(nil), base...), combo...)
			res := ScorePattern(s, nodes, req, pattern)
			if req.MinBW > 0 && res.PairMinBW < req.MinBW {
				return
			}
			if req.MaxPairLatency > 0 && res.MaxPairLatency > req.MaxPairLatency {
				return
			}
			if !found || res.MinResource > best.MinResource {
				best = res
				found = true
			}
			return
		}
		for i := start; i <= len(free)-remaining; i++ {
			combo = append(combo, free[i])
			rec(i+1, remaining-1)
			combo = combo[:len(combo)-1]
		}
	}
	rec(0, need)
	if !found {
		return PatternResult{}, ErrNoFeasibleSet
	}
	return best, nil
}

package core

import (
	"math"
	"sort"

	"nodeselect/internal/topology"
)

// Score evaluates a concrete node set against the snapshot, computing the
// quantities the paper's objectives are defined over: the minimum effective
// CPU fraction, the minimum pairwise available bandwidth along static
// routes, the corresponding bandwidth fraction, and the balanced
// minresource. Score does not check floors or eligibility; it measures what
// the set actually gets.
func Score(s *topology.Snapshot, nodes []int, req Request) Result {
	sorted := append([]int(nil), nodes...)
	sort.Ints(sorted)
	res := scoreSorted(s, sorted, req)
	res.Nodes = sorted
	return res
}

// scoreSorted is Score over a set already in ascending ID order, without
// the copy: the Result's Nodes is left nil and nothing is allocated, so the
// sweep can score the sets it enumerates where they lie.
func scoreSorted(s *topology.Snapshot, nodes []int, req Request) Result {
	res := Result{
		MinCPU:         math.Inf(1),
		PairMinBW:      math.Inf(1),
		MinBWFactor:    math.Inf(1),
		BottleneckLink: -1,
	}
	for _, id := range nodes {
		if cpu := s.EffectiveCPU(id); cpu < res.MinCPU {
			res.MinCPU = cpu
		}
	}
	// Pairwise bottleneck over static routes. For the fraction we take,
	// per link on each route, availbw divided by the reference capacity
	// (or the link's own capacity when no reference is set), and minimize.
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			a, b := nodes[i], nodes[j]
			lat := 0.0
			s.Graph.WalkRoute(a, b, func(lid int) {
				bw := s.AvailBW[lid]
				if bw < res.PairMinBW {
					res.PairMinBW = bw
					res.BottleneckLink = lid
				}
				if f := linkFactor(s, lid, req); f < res.MinBWFactor {
					res.MinBWFactor = f
				}
				lat += s.Graph.Link(lid).Latency
			})
			if lat > res.MaxPairLatency {
				res.MaxPairLatency = lat
			}
		}
	}
	if len(nodes) == 0 {
		res.MinCPU = 0
	}
	res.MinResource = math.Min(res.MinCPU, req.priority()*res.MinBWFactor)
	return res
}

// linkFactor returns the fractional availability of a link under the
// request's heterogeneity convention.
func linkFactor(s *topology.Snapshot, link int, req Request) float64 {
	if req.RefCapacity > 0 {
		return s.AvailBW[link] / req.RefCapacity
	}
	return s.BWFactor(link)
}

// topCPUNodes returns, from the candidate IDs, the m nodes with the highest
// effective CPU, preferring pinned nodes first (they are mandatory) and
// breaking CPU ties by lower node ID for determinism. It returns nil if the
// candidates cannot cover all pinned nodes or provide m nodes in total.
func topCPUNodes(s *topology.Snapshot, candidates []int, m int, pinned map[int]bool) []int {
	if len(candidates) < m {
		return nil
	}
	ordered := append([]int(nil), candidates...)
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		pa, pb := pinned[a], pinned[b]
		if pa != pb {
			return pa // pinned first
		}
		ca, cb := s.EffectiveCPU(a), s.EffectiveCPU(b)
		if ca != cb {
			return ca > cb
		}
		return a < b
	})
	havePinned := 0
	for _, id := range ordered {
		if pinned[id] {
			havePinned++
		}
	}
	if havePinned < len(pinned) {
		return nil
	}
	out := append([]int(nil), ordered[:m]...)
	sort.Ints(out)
	return out
}

// filterNodes returns the elements of a that pass keep, preserving order.
func filterNodes(a []int, keep func(int) bool) []int {
	var out []int
	for _, v := range a {
		if keep(v) {
			out = append(out, v)
		}
	}
	return out
}

// pairLatencyOK reports whether every pair of nodes meets the request's
// latency ceiling (always true when no ceiling is set).
func pairLatencyOK(s *topology.Snapshot, nodes []int, req Request) bool {
	if req.MaxPairLatency <= 0 {
		return true
	}
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if s.Graph.PathLatency(nodes[i], nodes[j]) > req.MaxPairLatency {
				return false
			}
		}
	}
	return true
}

// candidatePools returns the node pools to try a top-CPU selection from.
// Without a latency ceiling the single pool is the candidate list itself.
// With a ceiling, the top-CPU nodes of a pool can violate it even when a
// feasible subset exists, so additional anchor pools are generated: for
// every candidate node v, the nodes within ceiling/2 of v. On tree
// topologies path latency is a metric, so any two members of such a ball
// are within the ceiling of each other; the exact pairwise check still
// runs afterwards, making the anchor pools a candidate generator rather
// than a correctness assumption (static routes on cyclic graphs need not
// satisfy the triangle inequality).
func candidatePools(s *topology.Snapshot, candidates []int, req Request) [][]int {
	pools := [][]int{candidates}
	if req.MaxPairLatency <= 0 {
		return pools
	}
	radius := req.MaxPairLatency / 2
	for _, v := range candidates {
		ball := filterNodes(candidates, func(u int) bool {
			return s.Graph.PathLatency(u, v) <= radius
		})
		if len(ball) >= req.M {
			pools = append(pools, ball)
		}
	}
	return pools
}

// containsAll reports whether sorted slice set contains every key of want.
func containsAll(set []int, want map[int]bool) bool {
	if len(want) == 0 {
		return true
	}
	found := 0
	for _, v := range set {
		if want[v] {
			found++
		}
	}
	return found == len(want)
}

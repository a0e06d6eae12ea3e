package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"nodeselect/internal/randx"
	"nodeselect/internal/testbed"
	"nodeselect/internal/topology"
)

// referenceBalancedPattern is the literal edge-deletion loop BalancedPattern
// ran before it moved onto the sweep's enumerator, kept as its oracle: one
// pool per surviving component per round, pinned-first top-m, the floor and
// the ceiling applied to the pattern's pairs after scoring, the first
// strict improvement in (round, component min-ID) order wins.
func referenceBalancedPattern(s *topology.Snapshot, req Request, pattern Pattern) (PatternResult, error) {
	eligible, err := req.validate(s)
	if err != nil {
		return PatternResult{}, err
	}
	g := s.Graph
	pinned := req.pinnedSet()
	isEligible := make(map[int]bool, len(eligible))
	for _, id := range eligible {
		isEligible[id] = true
	}

	alive := make([]bool, g.NumLinks())
	for l := range alive {
		alive[l] = req.linkUsable(s, l)
	}
	aliveFn := func(l int) bool { return alive[l] }
	order := make([]int, 0, g.NumLinks())
	for l := 0; l < g.NumLinks(); l++ {
		if alive[l] {
			order = append(order, l)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		fi, fj := linkFactor(s, order[i], req), linkFactor(s, order[j], req)
		if fi != fj {
			return fi < fj
		}
		return order[i] < order[j]
	})

	var best PatternResult
	found := false
	evaluate := func() {
		for _, comp := range g.Components(aliveFn) {
			if !containsAll(comp, pinned) {
				continue
			}
			cands := filterNodes(comp, func(id int) bool { return isEligible[id] })
			nodes := topCPUNodes(s, cands, req.M, pinned)
			if nodes == nil {
				continue
			}
			res := ScorePattern(s, nodes, req, pattern)
			if req.MinBW > 0 && res.PairMinBW < req.MinBW {
				continue
			}
			if req.MaxPairLatency > 0 && res.MaxPairLatency > req.MaxPairLatency {
				continue
			}
			if !found || res.MinResource > best.MinResource {
				best = res
				found = true
			}
		}
	}
	evaluate()
	for i := 0; i < len(order); {
		v := linkFactor(s, order[i], req)
		alive[order[i]] = false
		i++
		for i < len(order) && linkFactor(s, order[i], req) == v {
			alive[order[i]] = false
			i++
		}
		evaluate()
	}
	if !found {
		return PatternResult{}, fmt.Errorf("%w: no component provides %d connected eligible compute nodes",
			ErrNoFeasibleSet, req.M)
	}
	return best, nil
}

// TestBalancedPatternMatchesLiteralLoop holds BalancedPattern to the
// literal loop — result, role assignment and error text — over both
// patterns with and without pins, bandwidth floors and latency ceilings, on
// two-tier snapshots (quantized metrics: ties in every round) and on random
// trees whose interior nodes compute.
func TestBalancedPatternMatchesLiteralLoop(t *testing.T) {
	root := randx.New(0x9a77)
	feasible := 0
	const cases = 360
	for i := 0; i < cases; i++ {
		src := root.Split(fmt.Sprintf("pattern-%d", i))
		var s *topology.Snapshot
		if i%3 == 2 {
			s = randomTreeSnapshot(src, 4+src.Intn(17))
		} else {
			s = testbed.RandomTwoTier(src, 2+src.Intn(4), 1+src.Intn(3), 5)
		}
		comp := s.Graph.ComputeNodes()
		req := Request{M: 1 + src.Intn(min(len(comp), 8))}
		for p := 0; p < (i/2)%3 && p < req.M; p++ {
			req.Pinned = append(req.Pinned, comp[src.Intn(len(comp))])
		}
		if i%4 == 1 {
			req.MinBW = src.Float64() * 60e6
		}
		if i%5 == 2 {
			req.MaxPairLatency = 0.5e-3 + src.Float64()*2e-3
		}
		pattern := []Pattern{PatternMasterSlave, PatternPipeline}[i%2]
		tag := fmt.Sprintf("case %d (%v, n=%d, %+v)", i, pattern, s.Graph.NumNodes(), req)

		got, err := BalancedPattern(s, req, pattern)
		want, werr := referenceBalancedPattern(s, req, pattern)
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("%s: error divergence: sweep=%v literal=%v", tag, err, werr)
		}
		if err != nil {
			continue
		}
		feasible++
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: result divergence:\nsweep:   %+v\nliteral: %+v", tag, got, want)
		}
	}
	if feasible < cases/2 {
		t.Fatalf("only %d of %d cases feasible: the wall compares too few placements", feasible, cases)
	}
}

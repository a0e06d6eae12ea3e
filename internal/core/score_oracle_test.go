package core_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	. "nodeselect/internal/core"
	"nodeselect/internal/randx"
	"nodeselect/internal/topology"
)

// referenceScore is Score as it stood before the sweep began scoring sets
// in place — copy, sort, walk every pair's route — kept as the oracle for
// both forms of the scorer.
func referenceScore(s *topology.Snapshot, nodes []int, req Request) Result {
	res := Result{
		Nodes:          append([]int(nil), nodes...),
		MinCPU:         math.Inf(1),
		PairMinBW:      math.Inf(1),
		MinBWFactor:    math.Inf(1),
		BottleneckLink: -1,
	}
	slices.Sort(res.Nodes)
	for _, id := range res.Nodes {
		res.MinCPU = math.Min(res.MinCPU, s.EffectiveCPU(id))
	}
	for i, a := range res.Nodes {
		for _, b := range res.Nodes[i+1:] {
			lat := 0.0
			s.Graph.WalkRoute(a, b, func(lid int) {
				if bw := s.AvailBW[lid]; bw < res.PairMinBW {
					res.PairMinBW, res.BottleneckLink = bw, lid
				}
				res.MinBWFactor = math.Min(res.MinBWFactor, LinkFactor(s, lid, req))
				lat += s.Graph.Link(lid).Latency
			})
			res.MaxPairLatency = math.Max(res.MaxPairLatency, lat)
		}
	}
	if len(res.Nodes) == 0 {
		res.MinCPU = 0
	}
	res.MinResource = math.Min(res.MinCPU, req.Priority()*res.MinBWFactor)
	return res
}

// TestScoreMatchesSortedScorer holds both forms of the scorer to the oracle
// over the equivalence harness's 1200 topologies: Score on an unsorted,
// duplicate-free set (which it must leave as it found it) and the in-place
// scorer on the sorted copy give the same metrics bit for bit, and only
// Score carries the set.
func TestScoreMatchesSortedScorer(t *testing.T) {
	root := randx.New(0xfa57)
	for i := 0; i < 1200; i++ {
		src := root.Split(fmt.Sprintf("equiv-%d", i))
		n := 4 + src.Intn(21)
		var s *topology.Snapshot
		if i%2 == 0 {
			s = RandomTreeSnapshot(src, n)
		} else {
			s = randomCyclicSnapshot(src, n)
		}
		if i%3 == 0 {
			quantizeBandwidth(s, 1+src.Intn(4))
		}
		req := equivRequest(src, s, i)
		nodes := s.Graph.ComputeNodes()
		src.Shuffle(len(nodes), func(a, b int) { nodes[a], nodes[b] = nodes[b], nodes[a] })
		nodes = nodes[:src.Intn(len(nodes)+1)]
		given := slices.Clone(nodes)

		want := referenceScore(s, nodes, req)
		if got := Score(s, nodes, req); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: Score(%v):\ngot  %+v\nwant %+v", i, nodes, got, want)
		}
		if !slices.Equal(nodes, given) {
			t.Fatalf("case %d: Score reordered its input %v to %v", i, given, nodes)
		}
		got := ScoreSorted(s, want.Nodes, req)
		if got.Nodes != nil {
			t.Fatalf("case %d: the in-place scorer returned a node set %v", i, got.Nodes)
		}
		got.Nodes = want.Nodes
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: in-place scorer on %v:\ngot  %+v\nwant %+v", i, want.Nodes, got, want)
		}
	}
}

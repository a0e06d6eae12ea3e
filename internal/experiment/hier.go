package experiment

import (
	"reflect"

	"nodeselect/internal/core"
	"nodeselect/internal/hierarchy"
	"nodeselect/internal/randx"
	"nodeselect/internal/testbed"
	"nodeselect/internal/topology"
)

// This file holds the grouped-selection equivalence suite that
// TestHierEquivalenceSuite runs (and `make hier` under the race detector):
// on randomized ≤200-node topologies every request is answered by
// core.Select and by hierarchy.Select over the snapshot's partition, and
// both must agree exactly. It times nothing: grouped and ungrouped are the
// same sweep, so what grouping buys is bench/'s tiered10k_hier workload to
// say.

// hierEquivTopologies is the randomized suite size.
const hierEquivTopologies = 24

// hierEquivalence summarizes the randomized equivalence/quality suite.
type hierEquivalence struct {
	// topologies and cases count the randomized topologies and the select
	// comparisons run over them.
	topologies, cases int
	// exact counts comparisons whose outcomes (node sets, scores, and
	// errors alike) were identical.
	exact int
	// quotientShare is the fraction of comparisons that ran grouped (the
	// rest fell outside the grouped class, which still must match but
	// exercises no grouping).
	quotientShare float64
	// qualityRatio is the worst grouped/ungrouped minresource ratio over
	// the successful comparisons (1 when every outcome matched exactly).
	qualityRatio float64
}

// paintConditions draws randomized measurement conditions onto a snapshot
// the way the cluster collapse expects real two-tier networks to look:
// per-node loads are arbitrary (cluster signatures key on static speed,
// not load), access links of compute leaves sharing an anchor switch get
// one uniform draw (the bandwidth-uniform interior), and everything else
// gets an independent draw. All bandwidth fractions are quantized to a
// 1/16 grid so the sweep sees a bounded tier count at any scale, exactly
// as link capacities do in practice. A few access links are perturbed off
// their cluster's draw so partitions keep mixed collapsed/loose structure.
func paintConditions(g *topology.Graph, snap *topology.Snapshot, rng *randx.Source, perturb int) {
	quant := func(f float64) float64 {
		q := float64(int(f*16)) / 16
		if q < 1.0/16 {
			q = 1.0 / 16
		}
		return q
	}
	for _, id := range g.ComputeNodes() {
		snap.SetLoad(id, rng.Uniform(0, 2.5))
	}
	// One bandwidth draw per anchor of degree-1 compute leaves; every
	// other link draws independently.
	anchorFrac := make(map[int]float64)
	var accessLinks []int
	for _, l := range g.Links() {
		la, lb := l.A, l.B
		leaf := -1
		anchor := -1
		if g.Node(la).Kind == topology.Compute && len(g.Incident(la)) == 1 {
			leaf, anchor = la, lb
		} else if g.Node(lb).Kind == topology.Compute && len(g.Incident(lb)) == 1 {
			leaf, anchor = lb, la
		}
		if leaf >= 0 {
			frac, ok := anchorFrac[anchor]
			if !ok {
				frac = quant(rng.Uniform(0.2, 1.0))
				anchorFrac[anchor] = frac
			}
			snap.SetAvailBW(l.ID, frac*l.Capacity)
			accessLinks = append(accessLinks, l.ID)
		} else {
			snap.SetAvailBW(l.ID, quant(rng.Uniform(0.3, 1.0))*l.Capacity)
		}
	}
	for i := 0; i < perturb && len(accessLinks) > 0; i++ {
		lid := accessLinks[rng.Intn(len(accessLinks))]
		snap.SetAvailBW(lid, quant(rng.Uniform(0.2, 1.0))*g.Link(lid).Capacity)
	}
}

// hierEquivCases builds the randomized request variants compared on each
// topology. The first variants sit inside the grouped class; the tail
// (M=1, pinned) deliberately falls outside it so the ungrouped hand-off is
// exercised by the same suite.
func hierEquivCases(g *topology.Graph, rng *randx.Source) []struct {
	algo string
	req  core.Request
} {
	compute := g.ComputeNodes()
	m := 2 + rng.Intn(6)
	if m > len(compute) {
		m = len(compute)
	}
	pin := compute[rng.Intn(len(compute))]
	return []struct {
		algo string
		req  core.Request
	}{
		{core.AlgoBalanced, core.Request{M: m}},
		{core.AlgoBandwidth, core.Request{M: m}},
		{core.AlgoBalanced, core.Request{M: m, MinBW: 30e6}},
		{core.AlgoBandwidth, core.Request{M: m, MinCPU: 0.3}},
		{core.AlgoBalanced, core.Request{M: m, ComputePriority: 2, RefCapacity: 1e9}},
		{core.AlgoBalanced, core.Request{M: 1}},
		{core.AlgoBalanced, core.Request{M: m, Pinned: []int{pin}}},
	}
}

// runHierEquivalence runs the randomized equivalence/quality suite: every
// case is answered ungrouped and through the partition, and the outcomes —
// node sets, every score field, and errors alike — must be identical.
func runHierEquivalence(seed int64) hierEquivalence {
	eq := hierEquivalence{qualityRatio: 1}
	quotient := 0
	for i := 0; i < hierEquivTopologies; i++ {
		rng := randx.New(seed).Split("hier-equiv").SplitN(i)
		var g *topology.Graph
		switch i % 4 {
		case 0, 1:
			g = testbed.MultiCluster(3+rng.Intn(3), 5+rng.Intn(8), testbed.Ethernet100, 1e9)
		case 2:
			g = testbed.MultiCluster(2+rng.Intn(2), 12+rng.Intn(12), testbed.Ethernet100, 1e9)
		default:
			g = testbed.FatTree(4, testbed.Ethernet100, 1e9)
		}
		snap := topology.NewSnapshot(g)
		paintConditions(g, snap, rng.Split("paint"), 1+rng.Intn(2))
		part := hierarchy.Build(snap)
		eq.topologies++
		for _, c := range hierEquivCases(g, rng.Split("req")) {
			fres, ferr := core.Select(c.algo, snap, c.req, randx.New(seed).Split("flat"))
			hres, path, herr := hierarchy.Select(c.algo, snap, part, c.req, randx.New(seed).Split("flat"), core.Options{})
			eq.cases++
			if path == hierarchy.PathQuotient {
				quotient++
			}
			switch {
			case ferr != nil || herr != nil:
				if ferr != nil && herr != nil && ferr.Error() == herr.Error() {
					eq.exact++
				}
			case reflect.DeepEqual(fres, hres):
				eq.exact++
				if fres.MinResource > 0 {
					if ratio := hres.MinResource / fres.MinResource; ratio < eq.qualityRatio {
						eq.qualityRatio = ratio
					}
				}
			default:
				if fres.MinResource > 0 && hres.MinResource/fres.MinResource < eq.qualityRatio {
					eq.qualityRatio = hres.MinResource / fres.MinResource
				}
			}
		}
	}
	if eq.cases > 0 {
		eq.quotientShare = float64(quotient) / float64(eq.cases)
	}
	return eq
}

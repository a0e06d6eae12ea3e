package experiment

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"nodeselect/internal/core"
	"nodeselect/internal/hierarchy"
	"nodeselect/internal/loadgen"
	"nodeselect/internal/randx"
	"nodeselect/internal/testbed"
	"nodeselect/internal/topology"
)

// This file drives the hierarchical-selection benchmark behind
// `expt -run hier` and the benchdiff -hier gate: a randomized
// equivalence/quality suite on ≤200-node topologies (both paths must agree
// exactly), a gated flat-vs-quotient latency A/B on the 10k-node two-tier
// cluster testbed, and ungated showcase timings at 1k (fat-tree) and 50k
// (two-tier). Both arms run at every scale: the graph's route table covers
// only the route core (101 switches at 10101 nodes, 501 at 50501 — 0.16 MB
// and 2.4 MB), so neither arm's memory grows with the square of the node
// count.

// HierOptions parameterizes the benchmark.
type HierOptions struct {
	// Seed randomizes topology conditions and request sequences.
	Seed int64
	// Selects per rep in the gated A/B (default 6), Reps of independently
	// repainted conditions (default 5; Welch needs at least 2).
	Selects int
	Reps    int
	// EquivTopologies is the randomized suite size (default 24).
	EquivTopologies int
	// SkipScales drops the ungated 1k/50k showcase rows (used by tests).
	SkipScales bool
}

func (o HierOptions) withDefaults() HierOptions {
	if o.Selects <= 0 {
		o.Selects = 6
	}
	if o.Reps <= 0 {
		o.Reps = 5
	}
	if o.EquivTopologies <= 0 {
		o.EquivTopologies = 24
	}
	return o
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

// hierEquivCase builds the randomized request variants compared on each
// topology. The first variants sit inside the quotient path's equivalence
// class; the tail (M=1, pinned) deliberately falls outside it so the
// fallback seam is exercised by the same suite.
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
// case is answered by the flat path and the hierarchical path, and the
// outcomes — node sets, every score field, and errors alike — must be
// identical.
func runHierEquivalence(opt HierOptions) loadgen.HierEquivalence {
	eq := loadgen.HierEquivalence{QualityRatio: 1}
	quotient := 0
	for i := 0; i < opt.EquivTopologies; i++ {
		rng := randx.New(opt.Seed).Split("hier-equiv").SplitN(i)
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
		eq.Topologies++
		for _, c := range hierEquivCases(g, rng.Split("req")) {
			fres, ferr := core.Select(c.algo, snap, c.req, randx.New(opt.Seed).Split("flat"))
			hres, path, herr := hierarchy.Select(c.algo, snap, part, c.req, randx.New(opt.Seed).Split("flat"), core.Options{})
			eq.Cases++
			if path == hierarchy.PathQuotient {
				quotient++
			}
			switch {
			case ferr != nil || herr != nil:
				if ferr != nil && herr != nil && ferr.Error() == herr.Error() {
					eq.Exact++
				}
			case reflect.DeepEqual(fres, hres):
				eq.Exact++
				if fres.MinResource > 0 {
					if ratio := hres.MinResource / fres.MinResource; ratio < eq.QualityRatio {
						eq.QualityRatio = ratio
					}
				}
			default:
				if fres.MinResource > 0 && hres.MinResource/fres.MinResource < eq.QualityRatio {
					eq.QualityRatio = hres.MinResource / fres.MinResource
				}
			}
		}
	}
	if eq.Cases > 0 {
		eq.QuotientShare = float64(quotient) / float64(eq.Cases)
	}
	return eq
}

// hierABRequests is the paired request sequence both arms time: varying
// set sizes and both sweep objectives, with an occasional CPU floor — all
// inside the quotient path's equivalence class, so the comparison is
// between two implementations of the same answer.
func hierABRequests(n int) []struct {
	algo string
	req  core.Request
} {
	sizes := []int{4, 8, 16, 32}
	out := make([]struct {
		algo string
		req  core.Request
	}, n)
	for i := range out {
		out[i].req = core.Request{M: sizes[i%len(sizes)]}
		if i%2 == 1 {
			out[i].algo = core.AlgoBandwidth
		} else {
			out[i].algo = core.AlgoBalanced
		}
		if i%4 == 3 {
			out[i].req.MinCPU = 0.2
		}
	}
	return out
}

// timeSelects runs the request sequence through one arm and returns the
// mean latency per select in seconds. The run function must panic-free
// answer every request; errors abort the benchmark (the testbeds are
// painted to keep every request feasible).
func timeSelects(reqs []struct {
	algo string
	req  core.Request
}, run func(algo string, req core.Request) error) (float64, error) {
	start := time.Now()
	for _, c := range reqs {
		if err := run(c.algo, c.req); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() / float64(len(reqs)), nil
}

// runHierAB times the paired A/B on one topology: per rep, repaint the
// conditions, rebuild the partition (untimed — it is a once-per-epoch
// cost, reported separately), warm both arms, then time the same request
// sequence through each.
func runHierAB(name string, g *topology.Graph, opt HierOptions, selects, reps int) (flat, hier loadgen.HierModeReport, scale loadgen.HierScale, err error) {
	snap := topology.NewSnapshot(g)
	nodes := len(g.Nodes())
	flat = loadgen.HierModeReport{Topology: name, Nodes: nodes, Selects: selects, Reps: reps}
	hier = flat
	scale = loadgen.HierScale{Topology: name, Nodes: nodes}
	rng := randx.New(opt.Seed).Split("hier-ab").Split(name)
	src := randx.New(opt.Seed).Split("hier-src")
	reqs := hierABRequests(selects)
	for r := 0; r < reps; r++ {
		paintConditions(g, snap, rng.SplitN(r), 2)
		buildStart := time.Now()
		part := hierarchy.Build(snap)
		scale.PartitionBuildMs = time.Since(buildStart).Seconds() * 1e3
		scale.Clusters = part.Clusters()
		scale.CollapsedNodes = part.CollapsedNodes()

		runHier := func(algo string, req core.Request) error {
			_, path, herr := hierarchy.Select(algo, snap, part, req, src, core.Options{})
			if herr != nil {
				return fmt.Errorf("hier %s M=%d: %w", algo, req.M, herr)
			}
			if path != hierarchy.PathQuotient {
				return fmt.Errorf("hier %s M=%d answered by %s, not the quotient path", algo, req.M, path)
			}
			return nil
		}
		if err = runHier(reqs[0].algo, reqs[0].req); err != nil { // warm
			return
		}
		var mean float64
		if mean, err = timeSelects(reqs, runHier); err != nil {
			return
		}
		hier.LatencySamples = append(hier.LatencySamples, mean)

		runFlat := func(algo string, req core.Request) error {
			if _, ferr := core.Select(algo, snap, req, src); ferr != nil {
				return fmt.Errorf("flat %s M=%d: %w", algo, req.M, ferr)
			}
			return nil
		}
		if err = runFlat(reqs[0].algo, reqs[0].req); err != nil { // warm
			return
		}
		if mean, err = timeSelects(reqs, runFlat); err != nil {
			return
		}
		flat.LatencySamples = append(flat.LatencySamples, mean)
	}
	for _, s := range hier.LatencySamples {
		hier.MeanLatencyMs += s * 1e3 / float64(len(hier.LatencySamples))
	}
	scale.HierMeanMs = hier.MeanLatencyMs
	for _, s := range flat.LatencySamples {
		flat.MeanLatencyMs += s * 1e3 / float64(len(flat.LatencySamples))
	}
	scale.FlatMeanMs = flat.MeanLatencyMs
	if hier.MeanLatencyMs > 0 {
		scale.Speedup = flat.MeanLatencyMs / hier.MeanLatencyMs
	}
	return flat, hier, scale, nil
}

// RunHier runs the equivalence suite, the gated 10k A/B, and the showcase
// scales, and gates the whole report at the acceptance thresholds (10x
// latency speedup at Welch p < 0.005, minresource within 0.95x of flat).
func RunHier(opt HierOptions) (loadgen.HierReport, error) {
	opt = opt.withDefaults()
	eq := runHierEquivalence(opt)

	flat, hier, _, err := runHierAB("tiered:100x100",
		testbed.MultiCluster(100, 100, testbed.Ethernet100, 1e9),
		opt, opt.Selects, opt.Reps)
	if err != nil {
		return loadgen.HierReport{}, fmt.Errorf("hier: 10k A/B: %w", err)
	}

	var scales []loadgen.HierScale
	if !opt.SkipScales {
		_, _, ft, err := runHierAB("fattree:16",
			testbed.FatTree(16, testbed.Ethernet100, 1e9), opt, 4, 2)
		if err != nil {
			return loadgen.HierReport{}, fmt.Errorf("hier: 1k fat-tree: %w", err)
		}
		_, _, big, err := runHierAB("tiered:500x100",
			testbed.MultiCluster(500, 100, testbed.Ethernet100, 1e9), opt, 4, 2)
		if err != nil {
			return loadgen.HierReport{}, fmt.Errorf("hier: 50k two-tier: %w", err)
		}
		scales = []loadgen.HierScale{ft, big}
	}

	return loadgen.GateHier(eq, flat, hier, scales, 10.0, 0.005, 0.95), nil
}

// FormatHier renders the benchmark report (hier.json carries the same
// numbers machine-readably).
func FormatHier(r loadgen.HierReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hierarchical selection benchmark\n")
	fmt.Fprintf(&b, "  equivalence: %d/%d exact over %d topologies (quotient share %.2f, quality ratio %.4f)\n",
		r.Equivalence.Exact, r.Equivalence.Cases, r.Equivalence.Topologies,
		r.Equivalence.QuotientShare, r.Equivalence.QualityRatio)
	fmt.Fprintf(&b, "  %s (%d nodes), %d selects x %d reps:\n",
		r.Flat.Topology, r.Flat.Nodes, r.Flat.Selects, r.Flat.Reps)
	fmt.Fprintf(&b, "    flat %.3fms/select   hier %.4fms/select   speedup %.1fx (floor %.1fx, welch p %.4g at alpha %.4g)\n",
		r.Flat.MeanLatencyMs, r.Hier.MeanLatencyMs, r.Speedup, r.MinSpeedup, r.WelchP, r.Alpha)
	for _, s := range r.Scales {
		fmt.Fprintf(&b, "  %s (%d nodes): %d clusters (%d collapsed), partition %.2fms, hier %.4fms/select, flat %.3fms (%.1fx)\n",
			s.Topology, s.Nodes, s.Clusters, s.CollapsedNodes, s.PartitionBuildMs, s.HierMeanMs, s.FlatMeanMs, s.Speedup)
	}
	if r.Pass {
		fmt.Fprintf(&b, "  PASS\n")
	} else {
		fmt.Fprintf(&b, "  FAIL: %s\n", strings.Join(r.Failures, "; "))
	}
	return b.String()
}

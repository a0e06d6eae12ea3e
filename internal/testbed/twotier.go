package testbed

import (
	"fmt"

	"nodeselect/internal/randx"
	"nodeselect/internal/topology"
)

// RandomTwoTier builds a random two-tier snapshot, the shape grouped
// selection is made for and the input of its equivalence walls: a backbone
// of switches (random tree plus chords) carrying a handful of loose and
// multi-homed compute nodes, with clusters of degree-1 leaves hanging off
// random switches. Access links are uniform
// within a cluster (the collapse precondition) but leaf loads are not —
// member ranking must cope with heterogeneous effective CPU. A few access
// links are perturbed afterwards so some leaves lose interchangeability,
// and all bandwidths are quantized onto a coarse grid so equal-metric tiers
// (several links removed per sweep round, score collisions) are common.
func RandomTwoTier(src *randx.Source, nSwitch, nClusters, leavesPer int) *topology.Snapshot {
	g := topology.NewGraph()
	caps := []float64{10e6, 100e6, 1e9}
	archs := []string{"", "x86", "alpha"}

	sw := make([]int, nSwitch)
	for i := range sw {
		sw[i] = g.AddNetworkNode(fmt.Sprintf("sw%d", i))
	}
	for i := 1; i < nSwitch; i++ {
		g.Connect(sw[src.Intn(i)], sw[i], caps[src.Intn(len(caps))],
			topology.LinkOpts{Latency: src.Float64() * 1e-3})
	}
	for e := 0; e < nSwitch/2; e++ {
		a, b := src.Intn(nSwitch), src.Intn(nSwitch)
		if a == b {
			continue
		}
		g.Connect(sw[a], sw[b], caps[src.Intn(len(caps))],
			topology.LinkOpts{Latency: src.Float64() * 1e-3})
	}

	nLoose := 2 + src.Intn(3)
	for i := 0; i < nLoose; i++ {
		id := g.AddComputeNodeSpec(fmt.Sprintf("x%d", i), 0.5+src.Float64()*1.5, archs[src.Intn(len(archs))])
		g.SetNodeMemory(id, float64(256*(1+src.Intn(8))))
		g.Connect(id, sw[src.Intn(nSwitch)], caps[src.Intn(len(caps))],
			topology.LinkOpts{Latency: src.Float64() * 1e-3})
		if src.Intn(2) == 0 { // multi-homed: stays in the backbone
			g.Connect(id, sw[src.Intn(nSwitch)], caps[src.Intn(len(caps))],
				topology.LinkOpts{Latency: src.Float64() * 1e-3})
		}
	}

	var accessLinks []int
	for c := 0; c < nClusters; c++ {
		anchor := sw[src.Intn(nSwitch)]
		speed := []float64{0.5, 1, 1.5, 2}[src.Intn(4)]
		arch := archs[src.Intn(len(archs))]
		mem := float64(512 * (1 + src.Intn(4)))
		capacity := caps[src.Intn(len(caps))]
		lat := float64(1+src.Intn(4)) * 25e-5
		n := 2 + src.Intn(leavesPer)
		for i := 0; i < n; i++ {
			id := g.AddComputeNodeSpec(fmt.Sprintf("c%d-%d", c, i), speed, arch)
			g.SetNodeMemory(id, mem)
			accessLinks = append(accessLinks,
				g.Connect(id, anchor, capacity, topology.LinkOpts{Latency: lat}))
		}
	}

	s := topology.NewSnapshot(g)
	for id := 0; id < g.NumNodes(); id++ {
		s.SetLoad(id, src.Float64()*4)
	}
	isAccess := make(map[int]bool, len(accessLinks))
	for _, l := range accessLinks {
		isAccess[l] = true
	}
	quantize := func(l int, frac float64) {
		c := g.Link(l).Capacity
		step := c / 8
		s.SetAvailBW(l, float64(int(frac*c/step))*step)
	}
	// Backbone links: independent random availability. Access links: one
	// draw per cluster, so the interior stays metric-uniform. accessLinks
	// is grouped by construction — a new cluster starts whenever the
	// anchor, capacity or latency changes relative to the previous link.
	frac := 0.0
	var prevAnchor int
	var prevCap, prevLat float64
	for i, l := range accessLinks {
		lk := g.Link(l)
		anchor := lk.A
		if g.Node(anchor).Kind == topology.Compute {
			anchor = lk.B
		}
		if i == 0 || anchor != prevAnchor || lk.Capacity != prevCap || lk.Latency != prevLat {
			frac = src.Float64()
		}
		prevAnchor, prevCap, prevLat = anchor, lk.Capacity, lk.Latency
		quantize(l, frac)
	}
	for l := 0; l < g.NumLinks(); l++ {
		if !isAccess[l] {
			quantize(l, src.Float64())
		}
	}
	// Perturb a few access links: those leaves lose interchangeability
	// and must stay ungrouped without disturbing exactness.
	for k := 0; k < 1+src.Intn(3); k++ {
		l := accessLinks[src.Intn(len(accessLinks))]
		quantize(l, src.Float64())
	}
	return s
}

// BenchSnapshot paints g the way the end-to-end benchmark paints every
// workload's input (bench/workload.go: loadedSnapshot under snapshotSeed 1):
// about a third of the compute nodes loaded and a third of the links partly
// used. Tests that guard what a benchmark workload costs build their input
// with it, so the guard and the workload walk the same tiers.
func BenchSnapshot(g *topology.Graph) *topology.Snapshot {
	src := randx.New(1).Split("snapshot")
	s := topology.NewSnapshot(g)
	for _, id := range g.ComputeNodes() {
		if src.Float64() < 0.35 {
			s.SetLoad(id, src.Uniform(0.5, 4))
		}
	}
	for l := 0; l < g.NumLinks(); l++ {
		if src.Float64() < 0.35 {
			s.SetUtilization(l, src.Uniform(0.2, 0.95))
		}
	}
	return s
}

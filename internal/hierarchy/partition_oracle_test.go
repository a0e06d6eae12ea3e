package hierarchy

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"nodeselect/internal/randx"
	"nodeselect/internal/testbed"
	"nodeselect/internal/topology"
)

// referenceBuild is the partition as it was first written, kept as Build's
// oracle: group the leaves in a map keyed by signature, one slice a group,
// rank each, order the bundles by smallest member. Map keys compare with
// ==, so +0 and −0 share a group and a NaN measurement never finds one.
func referenceBuild(s *topology.Snapshot) []Bundle {
	g := s.Graph
	groups := make(map[bundleSig][]int)
	for _, id := range g.ComputeNodes() {
		if g.Degree(id) != 1 {
			continue
		}
		lid := g.Incident(id)[0]
		lk := g.Link(lid)
		anchor := lk.Other(id)
		if g.Degree(anchor) <= 1 {
			continue
		}
		node := g.Node(id)
		sig := bundleSig{
			anchor:     anchor,
			speed:      node.Speed,
			arch:       node.Arch,
			memoryMB:   node.MemoryMB,
			capacity:   lk.Capacity,
			latency:    lk.Latency,
			fullDuplex: lk.FullDuplex,
			availBW:    s.AvailBW[lid],
		}
		groups[sig] = append(groups[sig], id)
	}
	var bundles []Bundle
	for sig, members := range groups {
		if len(members) < 2 {
			continue
		}
		b := Bundle{
			Anchor:   sig.anchor,
			Members:  members,
			Links:    make([]int, len(members)),
			MinID:    members[0],
			AvailBW:  sig.availBW,
			Capacity: sig.capacity,
		}
		sort.Slice(b.Members, func(i, j int) bool {
			a, c := b.Members[i], b.Members[j]
			ca, cc := s.EffectiveCPU(a), s.EffectiveCPU(c)
			if ca != cc {
				return ca > cc
			}
			return a < c
		})
		for i, id := range b.Members {
			b.Links[i] = g.Incident(id)[0]
		}
		bundles = append(bundles, b)
	}
	sort.Slice(bundles, func(i, j int) bool { return bundles[i].MinID < bundles[j].MinID })
	return bundles
}

// sameBundles holds Build's bundles to the oracle's, bundle for bundle and
// in order. The floats compare with ==, as the signatures did: a bundle
// formed across +0 and −0 may report either.
func sameBundles(got, want []Bundle) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d bundles, the oracle has %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Anchor != w.Anchor || g.MinID != w.MinID || g.AvailBW != w.AvailBW || g.Capacity != w.Capacity ||
			!slices.Equal(g.Members, w.Members) || !slices.Equal(g.Links, w.Links) {
			return fmt.Errorf("bundle %d:\nbuild:  %+v\noracle: %+v", i, g, w)
		}
	}
	return nil
}

// TestBuildMatchesReference: the sort-and-cut Build forms the map's groups
// exactly, on random two-tier fabrics (perturbed access links, mixed
// architectures and speeds, loaded leaves), on the benchmark's 10 101-node
// input, and on the crafted topology.
func TestBuildMatchesReference(t *testing.T) {
	check := func(tag string, s *topology.Snapshot, atLeast int) {
		t.Helper()
		want := referenceBuild(s)
		if len(want) < atLeast {
			t.Fatalf("%s: the oracle forms %d bundles, want ≥ %d: the input does not exercise the build", tag, len(want), atLeast)
		}
		if err := sameBundles(Build(s).Bundles(), want); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
	}
	for seed := int64(0); seed < 60; seed++ {
		src := randx.New(seed)
		s := testbed.RandomTwoTier(src, 3+src.Intn(8), 2+src.Intn(7), 2+src.Intn(30))
		for _, id := range s.Graph.ComputeNodes() {
			if src.Intn(3) == 0 {
				s.SetLoad(id, float64(src.Intn(4))) // ties in effective CPU too
			}
		}
		check(fmt.Sprintf("seed %d", seed), s, 1)
	}
	crafted, _ := craftedSnapshot(t)
	check("crafted", crafted, 2)
	if !testing.Short() {
		check("tiered10k", tiered10k(), 100)
	}
}

// TestBuildSignatureEdges are the hand cases a sort could get wrong where a
// map cannot: one signature under two anchors, measurements that are ==
// without being the same bits, a measurement that is not == to itself, an
// anchor of degree 1, a lone leaf — and several of them under one anchor.
func TestBuildSignatureEdges(t *testing.T) {
	g := topology.NewGraph()
	sw0, sw1, sw2 := g.AddNetworkNode("sw0"), g.AddNetworkNode("sw1"), g.AddNetworkNode("sw2")
	g.Connect(sw0, sw1, 1e9, topology.LinkOpts{})
	g.Connect(sw1, sw2, 1e9, topology.LinkOpts{})
	link := map[string]int{}
	leaf := func(name string, sw int, duplex bool) {
		id := g.AddComputeNodeSpec(name, 1, "x86")
		link[name] = g.Connect(id, sw, 100e6, topology.LinkOpts{Latency: 1e-4, FullDuplex: duplex})
	}
	// Interleaved IDs: two anchors, one signature — two bundles, never one.
	for i := 0; i < 3; i++ {
		leaf(fmt.Sprintf("p%d", i), sw0, false)
		leaf(fmt.Sprintf("q%d", i), sw1, false)
	}
	// Under sw2, IDs interleaved: a ±0 group of four, a pair split from it
	// by duplex alone, three NaN leaves and a lone leaf.
	for _, name := range []string{"z0", "d0", "nan0", "z1", "z2", "lone", "nan1", "d1", "z3", "nan2"} {
		leaf(name, sw2, name[0] == 'd')
	}
	// Two compute nodes joined only to each other: degree-1 anchors.
	a, b := g.AddComputeNode("pair0"), g.AddComputeNode("pair1")
	g.Connect(a, b, 10e6, topology.LinkOpts{})

	s := topology.NewSnapshot(g)
	negZero := math.Copysign(0, -1)
	for i, bw := range []float64{0, negZero, negZero, 0} {
		s.AvailBW[link[fmt.Sprintf("z%d", i)]] = bw
	}
	for i := 0; i < 2; i++ {
		s.AvailBW[link[fmt.Sprintf("d%d", i)]] = 0
	}
	for i := 0; i < 3; i++ {
		s.AvailBW[link[fmt.Sprintf("nan%d", i)]] = math.NaN()
	}
	s.AvailBW[link["lone"]] = 40e6
	s.SetLoad(g.MustNode("z0"), 2) // the group's smallest ID ranks last

	want := referenceBuild(s)
	got := Build(s).Bundles()
	if err := sameBundles(got, want); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for _, b := range got {
		sizes = append(sizes, len(b.Members))
	}
	if !slices.Equal(sizes, []int{3, 3, 4, 2}) {
		t.Fatalf("bundle sizes %v, want p, q, the four zeros, the duplex pair: %+v", sizes, got)
	}
	if z := got[2]; z.MinID != g.MustNode("z0") || z.Members[3] != g.MustNode("z0") {
		t.Fatalf("zeros: MinID %d, members %v: MinID is the smallest ID, not the best rank", z.MinID, z.Members)
	}
}

// TestBundlesDoNotShareCapacity: every bundle's Members and Links are cut
// from two arrays, so each must be clipped — growing one bundle's slice may
// not write into its neighbour.
func TestBundlesDoNotShareCapacity(t *testing.T) {
	s := testbed.RandomTwoTier(randx.New(3), 6, 5, 8)
	p := Build(s)
	want := referenceBuild(s)
	if len(want) < 2 {
		t.Fatalf("%d bundles: nothing to overrun", len(want))
	}
	for _, b := range p.Bundles() {
		if cap(b.Members) != len(b.Members) || cap(b.Links) != len(b.Links) {
			t.Fatalf("bundle at anchor %d: cap %d/%d beyond len %d", b.Anchor, cap(b.Members), cap(b.Links), len(b.Members))
		}
		_ = append(b.Members, -7)
		_ = append(b.Links, -7)
	}
	if err := sameBundles(p.Bundles(), want); err != nil {
		t.Fatalf("after appending to every bundle: %v", err)
	}
}

// TestPartitionBuildAllocs bounds what a partition build allocates on the
// benchmark's input, where it runs once a poll epoch: ≤ 100 allocations
// (15 measured; a slice per leaf group and a grown map made 4672).
func TestPartitionBuildAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10k-node topology")
	}
	s := tiered10k()
	if avg := testing.AllocsPerRun(5, func() { Build(s) }); avg > 100 {
		t.Fatalf("partition build: %.0f allocations, want ≤ 100", avg)
	}
}

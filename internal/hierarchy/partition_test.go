package hierarchy

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"nodeselect/internal/randx"
	"nodeselect/internal/testbed"
	"nodeselect/internal/topology"
)

// craftedSnapshot builds a small topology with every partition case:
// a proper bundle, a second bundle distinguished only by node speed, a
// lone leaf (group of one), a multi-homed compute node, an isolated
// compute pair (degree-1 anchor), and a leaf split off its group by a
// perturbed access-link measurement.
func craftedSnapshot(t *testing.T) (*topology.Snapshot, map[string]int) {
	t.Helper()
	g := topology.NewGraph()
	ids := map[string]int{}
	add := func(name string, id int) int { ids[name] = id; return id }

	sw0 := add("sw0", g.AddNetworkNode("sw0"))
	sw1 := add("sw1", g.AddNetworkNode("sw1"))
	g.Connect(sw0, sw1, 1e9, topology.LinkOpts{Latency: 1e-4})

	for i := 1; i <= 3; i++ {
		id := add(fmt.Sprintf("a%d", i), g.AddComputeNodeSpec(fmt.Sprintf("a%d", i), 1, ""))
		g.SetNodeMemory(id, 1024)
		g.Connect(id, sw0, 100e6, topology.LinkOpts{Latency: 1e-4})
	}
	for i := 1; i <= 2; i++ {
		id := add(fmt.Sprintf("b%d", i), g.AddComputeNodeSpec(fmt.Sprintf("b%d", i), 2, ""))
		g.SetNodeMemory(id, 1024)
		g.Connect(id, sw0, 100e6, topology.LinkOpts{Latency: 1e-4})
	}
	lone := add("lone", g.AddComputeNodeSpec("lone", 1.5, ""))
	g.Connect(lone, sw1, 100e6, topology.LinkOpts{Latency: 1e-4})
	multi := add("multi", g.AddComputeNode("multi"))
	g.Connect(multi, sw0, 1e9, topology.LinkOpts{})
	g.Connect(multi, sw1, 1e9, topology.LinkOpts{})
	// Two compute nodes joined only to each other: each sees a degree-1
	// anchor, so neither may collapse into the other.
	p1 := add("pair1", g.AddComputeNode("pair1"))
	p2 := add("pair2", g.AddComputeNode("pair2"))
	g.Connect(p1, p2, 10e6, topology.LinkOpts{})
	// A would-be third member of the a-bundle whose access measurement
	// is perturbed below.
	split := add("split", g.AddComputeNodeSpec("split", 1, ""))
	g.SetNodeMemory(split, 1024)
	lidSplit := g.Connect(split, sw0, 100e6, topology.LinkOpts{Latency: 1e-4})

	s := topology.NewSnapshot(g)
	s.SetAvailBW(lidSplit, 40e6) // differs from its siblings' 100e6
	return s, ids
}

func TestPartitionStructure(t *testing.T) {
	s, ids := craftedSnapshot(t)
	p := Build(s)

	if got := p.Clusters(); got != 2 {
		t.Fatalf("Clusters() = %d, want 2 (got %+v)", got, p.Bundles())
	}
	bs := p.Bundles()
	// Bundles are ordered by smallest member ID: the a-bundle first.
	wantA := []int{ids["a1"], ids["a2"], ids["a3"]}
	if !reflect.DeepEqual(bs[0].Members, wantA) {
		t.Fatalf("bundle 0 members = %v, want %v", bs[0].Members, wantA)
	}
	wantB := []int{ids["b1"], ids["b2"]}
	if !reflect.DeepEqual(bs[1].Members, wantB) {
		t.Fatalf("bundle 1 members = %v, want %v", bs[1].Members, wantB)
	}
	for _, b := range bs {
		if b.Anchor != ids["sw0"] {
			t.Fatalf("bundle anchor = %d, want sw0 (%d)", b.Anchor, ids["sw0"])
		}
		if b.MinID != b.Members[0] {
			t.Fatalf("bundle MinID = %d, members %v", b.MinID, b.Members)
		}
	}
	if got := p.CollapsedNodes(); got != 5 {
		t.Fatalf("CollapsedNodes() = %d, want 5", got)
	}
	if got := p.BackboneNodes(); got != s.Graph.NumNodes()-5 {
		t.Fatalf("BackboneNodes() = %d, want %d", got, s.Graph.NumNodes()-5)
	}
	if p.Graph() != s.Graph {
		t.Fatalf("Graph() does not round-trip")
	}
	// The split leaf, the lone leaf, the multi-homed node and the
	// isolated pair all stay in the backbone.
	for _, name := range []string{"split", "lone", "multi", "pair1", "pair2"} {
		for _, b := range p.Bundles() {
			if slices.Contains(b.Members, ids[name]) {
				t.Fatalf("%s collapsed into a bundle, want backbone", name)
			}
		}
	}
}

func TestPartitionMemberRanking(t *testing.T) {
	s, ids := craftedSnapshot(t)
	// Loads differ per member: ranking must follow effective CPU
	// descending with ID ascending ties, not raw ID order.
	s.SetLoad(ids["a1"], 3) // eff 0.25
	s.SetLoad(ids["a2"], 0) // eff 1.00
	s.SetLoad(ids["a3"], 1) // eff 0.50
	p := Build(s)
	want := []int{ids["a2"], ids["a3"], ids["a1"]}
	if got := p.Bundles()[0].Members; !reflect.DeepEqual(got, want) {
		t.Fatalf("ranked members = %v, want %v", got, want)
	}
	if got := p.Bundles()[0].MinID; got != ids["a1"] {
		t.Fatalf("MinID = %d, want %d (smallest ID regardless of rank)", got, ids["a1"])
	}
}

func TestPartitionDeterminism(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		src := randx.New(seed)
		s := testbed.RandomTwoTier(src, 6, 5, 8)
		p1, p2 := Build(s), Build(s)
		if !reflect.DeepEqual(p1.Bundles(), p2.Bundles()) {
			t.Fatalf("seed %d: bundle sets differ across builds", seed)
		}
		if !reflect.DeepEqual(p1.grouping, p2.grouping) {
			t.Fatalf("seed %d: the groupings handed to the sweep differ across builds", seed)
		}
	}
}

// TestRouteDecomposition checks the decomposition the quotient path's
// exactness rests on, for every leaf (bundled or not) and every node pair:
// the graph's static route is the source's access link, the route between
// the two anchors, and the destination's access link — identical link
// sequences, hence identical bottlenecks, fractions and latencies for any
// scored set. (topology's all-pairs oracle test checks the routes
// themselves.)
func TestRouteDecomposition(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		src := randx.New(seed)
		s := testbed.RandomTwoTier(src, 4+src.Intn(6), 2+src.Intn(5), 6)
		g := s.Graph
		n := g.NumNodes()
		// anchorOf returns a leaf's attachment node and access link, or
		// the node itself and -1.
		anchorOf := func(v int) (int, int) {
			if g.Degree(v) != 1 {
				return v, -1
			}
			lid := g.Incident(v)[0]
			if a := g.Link(lid).Other(v); g.Degree(a) > 1 {
				return a, lid
			}
			return v, -1
		}
		for _, b := range Build(s).Bundles() {
			for i, id := range b.Members {
				if a, l := anchorOf(id); a != b.Anchor || l != b.Links[i] {
					t.Fatalf("seed %d: member %d: anchor/access %d/%d, bundle says %d/%d", seed, id, a, l, b.Anchor, b.Links[i])
				}
			}
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				aa, la := anchorOf(a)
				ab, lb := anchorOf(b)
				var dec []int
				if la >= 0 {
					dec = append(dec, la)
				}
				dec = append(dec, g.Route(aa, ab)...)
				if lb >= 0 {
					dec = append(dec, lb)
				}
				if full := g.Route(a, b); !reflect.DeepEqual(full, dec) {
					t.Fatalf("seed %d: route %d->%d: full %v decomposed %v", seed, a, b, full, dec)
				}
			}
		}
	}
}

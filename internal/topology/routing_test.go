package topology

import (
	"testing"
	"testing/quick"

	"nodeselect/internal/randx"
)

func TestRouteLine(t *testing.T) {
	g := line(5)
	r := g.Route(0, 4)
	if len(r) != 4 {
		t.Fatalf("route 0->4 has %d links, want 4", len(r))
	}
	for i, lid := range r {
		if lid != i {
			t.Fatalf("route 0->4 = %v, want [0 1 2 3]", r)
		}
	}
	if len(g.Route(2, 2)) != 0 {
		t.Fatal("route to self should be empty")
	}
}

func TestRouteSymmetricHops(t *testing.T) {
	g := star(5)
	for _, a := range g.ComputeNodes() {
		for _, b := range g.ComputeNodes() {
			if g.HopCount(a, b) != g.HopCount(b, a) {
				t.Fatalf("asymmetric hop count between %d and %d", a, b)
			}
		}
	}
}

func TestRouteStar(t *testing.T) {
	g := star(4)
	a, b := g.MustNode("c00"), g.MustNode("c03")
	r := g.Route(a, b)
	if len(r) != 2 {
		t.Fatalf("leaf-to-leaf via hub should be 2 hops, got %d", len(r))
	}
	nodes := g.PathNodes(a, b)
	if len(nodes) != 3 || nodes[0] != a || nodes[1] != g.MustNode("sw") || nodes[2] != b {
		t.Fatalf("PathNodes = %v", nodes)
	}
}

func TestRouteOnCycleIsStatic(t *testing.T) {
	// Square cycle a-b-c-d-a: route a->c must be deterministic and use a
	// shortest (2-hop) path; calling twice must give the same path.
	g := NewGraph()
	a := g.AddComputeNode("a")
	b := g.AddComputeNode("b")
	c := g.AddComputeNode("c")
	d := g.AddComputeNode("d")
	g.Connect(a, b, 1e6, LinkOpts{})
	g.Connect(b, c, 1e6, LinkOpts{})
	g.Connect(c, d, 1e6, LinkOpts{})
	g.Connect(d, a, 1e6, LinkOpts{})
	r1 := g.Route(a, c)
	r2 := g.Route(a, c)
	if len(r1) != 2 {
		t.Fatalf("route on square should be 2 hops, got %d", len(r1))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("static route changed between calls")
		}
	}
}

func TestRouteUnreachablePanics(t *testing.T) {
	g := NewGraph()
	g.AddComputeNode("a")
	g.AddComputeNode("b")
	if g.Reachable(0, 1) {
		t.Fatal("disconnected nodes reported reachable")
	}
	if g.HopCount(0, 1) != -1 {
		t.Fatal("HopCount for unreachable should be -1")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Route between disconnected nodes did not panic")
		}
	}()
	g.Route(0, 1)
}

func TestReachableSelf(t *testing.T) {
	g := line(2)
	if !g.Reachable(0, 0) {
		t.Fatal("node not reachable from itself")
	}
	if g.HopCount(1, 1) != 0 {
		t.Fatal("self hop count should be 0")
	}
}

func TestPathLatency(t *testing.T) {
	g := NewGraph()
	a := g.AddComputeNode("a")
	r := g.AddNetworkNode("r")
	b := g.AddComputeNode("b")
	g.Connect(a, r, 1e6, LinkOpts{Latency: 0.001})
	g.Connect(r, b, 1e6, LinkOpts{Latency: 0.002})
	if got := g.PathLatency(a, b); got != 0.003 {
		t.Fatalf("PathLatency = %v, want 0.003", got)
	}
}

func TestPathBottleneck(t *testing.T) {
	g := line(4)
	bw := []float64{50e6, 10e6, 80e6}
	got, ok := g.PathBottleneck(0, 3, func(l int) float64 { return bw[l] })
	if !ok || got != 10e6 {
		t.Fatalf("PathBottleneck = %v/%v, want 10e6/true", got, ok)
	}
	_, ok = g.PathBottleneck(1, 1, func(l int) float64 { return bw[l] })
	if ok {
		t.Fatal("self path should report no links")
	}
}

func TestRoutesInvalidatedByMutation(t *testing.T) {
	g := line(3)
	if g.HopCount(0, 2) != 2 {
		t.Fatal("precondition")
	}
	// Adding a shortcut must invalidate the cached routing table.
	g.Connect(0, 2, 1e6, LinkOpts{})
	if g.HopCount(0, 2) != 1 {
		t.Fatalf("HopCount after shortcut = %d, want 1", g.HopCount(0, 2))
	}
}

// randomTree builds a uniformly random labelled tree over n compute nodes.
func randomTree(src *randx.Source, n int) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.AddComputeNode(nodeName(i))
	}
	for i := 1; i < n; i++ {
		parent := src.Intn(i)
		g.Connect(parent, i, 100e6, LinkOpts{})
	}
	return g
}

// Property: on a tree, every route's hop count equals the length of the
// unique path, and route(a,b) traverses exactly the reverse links of
// route(b,a).
func TestQuickTreeRoutes(t *testing.T) {
	f := func(seed int64) bool {
		src := randx.New(seed)
		n := 2 + src.Intn(20)
		g := randomTree(src, n)
		for trial := 0; trial < 10; trial++ {
			a, b := src.Intn(n), src.Intn(n)
			fwd := g.Route(a, b)
			rev := g.Route(b, a)
			if len(fwd) != len(rev) || len(fwd) != g.HopCount(a, b) {
				return false
			}
			for i := range fwd {
				if fwd[i] != rev[len(rev)-1-i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: hop counts obey the triangle inequality under static routing on
// trees (where routes are unique shortest paths).
func TestQuickTreeTriangle(t *testing.T) {
	f := func(seed int64) bool {
		src := randx.New(seed)
		n := 3 + src.Intn(15)
		g := randomTree(src, n)
		for trial := 0; trial < 10; trial++ {
			a, b, c := src.Intn(n), src.Intn(n), src.Intn(n)
			if g.HopCount(a, c) > g.HopCount(a, b)+g.HopCount(b, c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRouteTableBuild(b *testing.B) {
	src := randx.New(1)
	g := randomTree(src, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.routes.Store(nil)
		g.Routes()
	}
}

func BenchmarkRouteLookup(b *testing.B) {
	src := randx.New(1)
	g := randomTree(src, 200)
	g.Routes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Route(i%200, (i*7)%200)
	}
}

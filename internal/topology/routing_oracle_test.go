package topology

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"nodeselect/internal/randx"
)

// oracleRoutes is the all-pairs route table the Graph kept before routes
// were leaf-stripped: a BFS from every destination over every node,
// scanning adjacency in link-ID order. It survives only here, as the
// independent oracle the leaf-stripped table must reproduce link for link.
type oracleRoutes struct {
	g    *Graph
	n    int
	next []int // next[src*n+dst]: first link from src towards dst, or -1
	hops []int // hops[src*n+dst]: hop count, or -1 when unreachable
}

func buildOracleRoutes(g *Graph) *oracleRoutes {
	n := len(g.nodes)
	rt := &oracleRoutes{g: g, n: n, next: make([]int, n*n), hops: make([]int, n*n)}
	for i := range rt.next {
		rt.next[i] = -1
		rt.hops[i] = -1
	}
	queue := make([]int, 0, n)
	for dst := 0; dst < n; dst++ {
		base := func(src int) int { return src*n + dst }
		rt.hops[base(dst)] = 0
		queue = append(queue[:0], dst)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, lid := range g.adj[u] {
				v := g.links[lid].Other(u)
				if rt.hops[base(v)] < 0 {
					rt.hops[base(v)] = rt.hops[base(u)] + 1
					rt.next[base(v)] = lid
					queue = append(queue, v)
				}
			}
		}
	}
	return rt
}

// route returns the oracle's a→b link sequence and whether b is reachable.
func (rt *oracleRoutes) route(a, b int) ([]int, bool) {
	if rt.hops[a*rt.n+b] < 0 {
		return nil, false
	}
	var out []int
	for u := a; u != b; {
		lid := rt.next[u*rt.n+b]
		out = append(out, lid)
		u = rt.g.links[lid].Other(u)
	}
	return out, true
}

// oracleShapes are the graph families the route core has to get right: the
// leaf rule's edge cases (stars, a two-node component whose endpoints are
// both degree 1, a leaf behind a degree-2 anchor, isolated nodes, parallel
// links that make a node degree 2 without a second neighbour) and the
// general ones (trees, cyclic cores, several components).
var oracleShapes = []struct {
	name  string
	build func(src *randx.Source) *Graph
}{
	{"tree", func(src *randx.Source) *Graph { return randomTree(src, 2+src.Intn(24)) }},
	{"cyclic core with leaves", func(src *randx.Source) *Graph {
		g := randomTree(src, 3+src.Intn(10))
		addChords(src, g, 1+src.Intn(6))
		addLeaves(src, g, src.Intn(12))
		return g
	}},
	{"multi-edges", func(src *randx.Source) *Graph {
		g := randomTree(src, 2+src.Intn(8))
		for i, k := 0, 1+src.Intn(4); i < k; i++ {
			lk := g.links[src.Intn(len(g.links))]
			g.Connect(lk.B, lk.A, 10e6, LinkOpts{}) // parallel, endpoints swapped
		}
		addLeaves(src, g, src.Intn(6))
		return g
	}},
	{"star", func(src *randx.Source) *Graph { return star(2 + src.Intn(12)) }},
	{"two-node component", func(src *randx.Source) *Graph {
		g := randomTree(src, 1+src.Intn(6))
		a := g.AddComputeNode("pair-a")
		b := g.AddComputeNode("pair-b")
		g.Connect(a, b, 10e6, LinkOpts{})
		return g
	}},
	{"isolated nodes", func(src *randx.Source) *Graph {
		g := randomTree(src, 1+src.Intn(8))
		for i, k := 0, 1+src.Intn(3); i < k; i++ {
			g.AddNetworkNode(fmt.Sprintf("iso%d", i))
		}
		addLeaves(src, g, src.Intn(4))
		return g
	}},
	{"leaf behind a degree-2 anchor", func(src *randx.Source) *Graph {
		g := line(3 + src.Intn(6)) // both ends are leaves of degree-2 anchors
		addChords(src, g, src.Intn(2))
		return g
	}},
	{"disconnected components", func(src *randx.Source) *Graph {
		g := randomTree(src, 2+src.Intn(8))
		base := g.NumNodes()
		k := 2 + src.Intn(8)
		for i := 0; i < k; i++ {
			g.AddNetworkNode(fmt.Sprintf("far%d", i))
		}
		for i := 1; i < k; i++ {
			g.Connect(base+src.Intn(i), base+i, 100e6, LinkOpts{})
		}
		addChords(src, g, src.Intn(3)) // may or may not bridge the two
		return g
	}},
	{"mutated after first query", func(src *randx.Source) *Graph {
		g := randomTree(src, 3+src.Intn(10))
		addLeaves(src, g, 1+src.Intn(5))
		g.HopCount(0, g.NumNodes()-1) // builds the table the mutations must drop
		addChords(src, g, 1+src.Intn(3))
		addLeaves(src, g, 1+src.Intn(3)) // new nodes, and old leaves may become anchors
		return g
	}},
}

// addChords connects k random distinct node pairs (possibly in parallel
// with an existing link).
func addChords(src *randx.Source, g *Graph, k int) {
	for i := 0; i < k; i++ {
		a, b := src.Intn(g.NumNodes()), src.Intn(g.NumNodes())
		if a != b {
			g.Connect(a, b, 1e9, LinkOpts{})
		}
	}
}

// addLeaves hangs k new degree-1 compute nodes off random existing nodes.
func addLeaves(src *randx.Source, g *Graph, k int) {
	for i := 0; i < k; i++ {
		anchor := src.Intn(g.NumNodes())
		id := g.AddComputeNode(fmt.Sprintf("leaf%d-%d", g.NumNodes(), i))
		g.Connect(id, anchor, 100e6, LinkOpts{})
	}
}

func routePanics(g *Graph, a, b int) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	g.Route(a, b)
	return false
}

// TestRoutesMatchAllPairsOracle checks Route, WalkRoute, HopCount and
// Reachable against the all-pairs BFS on every ordered pair of 540 seeded
// graphs across the shapes above.
func TestRoutesMatchAllPairsOracle(t *testing.T) {
	const seedsPerShape = 60
	for si, shape := range oracleShapes {
		for seed := 0; seed < seedsPerShape; seed++ {
			g := shape.build(randx.New(int64(1000*si + seed)))
			want := buildOracleRoutes(g)
			n := g.NumNodes()
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					tag := fmt.Sprintf("%s seed %d: %d->%d", shape.name, seed, a, b)
					route, ok := want.route(a, b)
					if got := g.Reachable(a, b); got != ok {
						t.Fatalf("%s: Reachable = %v, oracle %v", tag, got, ok)
					}
					if got := g.HopCount(a, b); got != want.hops[a*n+b] {
						t.Fatalf("%s: HopCount = %d, oracle %d", tag, got, want.hops[a*n+b])
					}
					if !ok {
						if !routePanics(g, a, b) {
							t.Fatalf("%s: Route did not panic on an unreachable pair", tag)
						}
						continue
					}
					if got := g.Route(a, b); !reflect.DeepEqual(got, route) {
						t.Fatalf("%s: Route = %v, oracle %v", tag, got, route)
					}
					var walked []int
					g.WalkRoute(a, b, func(l int) { walked = append(walked, l) })
					if !reflect.DeepEqual(walked, route) {
						t.Fatalf("%s: WalkRoute = %v, oracle %v", tag, walked, route)
					}
				}
			}
		}
	}
}

// TestRouteCoreStripsLeaves pins the size claim: only non-leaf nodes get
// next-hop entries, and the two-node component keeps both of its.
func TestRouteCoreStripsLeaves(t *testing.T) {
	g := star(50) // hub + 50 leaves
	if rt := g.Routes(); rt.n != 1 || len(rt.next) != 1 {
		t.Fatalf("star core = %d nodes / %d entries, want 1 / 1", rt.n, len(rt.next))
	}
	pair := line(2)
	if rt := pair.Routes(); rt.n != 2 {
		t.Fatalf("two-node component core = %d nodes, want 2", rt.n)
	}
}

// TestRoutesConcurrentFirstUse fires 16 goroutines at WalkRoute on a graph
// whose table is not built yet: under -race the lazy build must be
// synchronised, every goroutine must see the one table, and every route
// must match the oracle.
func TestRoutesConcurrentFirstUse(t *testing.T) {
	src := randx.New(42)
	g := randomTree(src, 40)
	addChords(src, g, 6)
	addLeaves(src, g, 60)
	want := buildOracleRoutes(g)
	n := g.NumNodes()

	const workers = 16
	tables := make([]*routeTable, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			tables[w] = g.Routes() // what WalkRoute's own first call resolves to
			for a := w; a < n; a += workers {
				for b := 0; b < n; b++ {
					var walked []int
					g.WalkRoute(a, b, func(l int) { walked = append(walked, l) })
					if route, _ := want.route(a, b); !reflect.DeepEqual(walked, route) {
						t.Errorf("route %d->%d = %v, oracle %v", a, b, walked, route)
						return
					}
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for w, rt := range tables {
		if rt == nil || rt != tables[0] {
			t.Fatalf("goroutine %d saw table %p, goroutine 0 saw %p: more than one build", w, rt, tables[0])
		}
	}
}

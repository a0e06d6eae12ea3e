package topology

import "fmt"

// routeTable holds the graph's static routes in leaf-stripped form. Networks
// in the paper's setting use static routing: even when the physical topology
// has cycles, a fixed path carries all traffic between a given pair of nodes
// (§3.3 "Cycles in network topology"). We model that with deterministic
// shortest-path routes (minimum hop count, ties broken by traversal order
// over link IDs).
//
// Only the route core — every node except a leaf, a degree-1 node whose
// single neighbour has degree > 1 — gets next-hop entries; compute nodes
// hang off routers as exactly such leaves, so the table is C×C hops for C
// core nodes instead of V×V (101² rather than 10101² on a 100×100 two-tier
// fabric). A route is then
//
//	route(a, b) = access(a) + core(anchor(a), anchor(b)) + access(b)
//
// with the access terms present only for leaves. That is link for link the
// route an all-pairs BFS assigns: a leaf is a BFS dead end — discovered and
// enqueued but expanding to nothing — so stripping leaves never reorders
// the discovery of core nodes, and a BFS rooted at a leaf is the BFS rooted
// at its anchor one step later. The test-only all-pairs oracle holds the
// two to that.
type routeTable struct {
	n int // number of core nodes
	// anchor[v] is the dense core index of v itself when v is a core node
	// and of v's single neighbour when v is a leaf.
	anchor []int32
	// access[v] is a leaf's single link, or -1 for a core node.
	access []int32
	// next[si*n+di] is the first hop from core node si towards core node
	// di; its link is -1 when di is unreachable or equal to si.
	next []hop
}

// hop is one next-hop entry: the link to take and the core index of the
// node it leads to.
type hop struct{ link, to int32 }

// Routes builds (or returns the cached) static routing table. The table is
// built once per graph: concurrent first callers block on one build and all
// receive the same table, and later calls are a single atomic load.
func (g *Graph) Routes() *routeTable {
	if rt := g.routes.Load(); rt != nil {
		return rt
	}
	g.routesMu.Lock()
	defer g.routesMu.Unlock()
	if rt := g.routes.Load(); rt != nil {
		return rt
	}
	rt := g.buildRoutes()
	g.routes.Store(rt)
	return rt
}

func (g *Graph) buildRoutes() *routeTable {
	rt := &routeTable{
		anchor: make([]int32, len(g.nodes)),
		access: make([]int32, len(g.nodes)),
	}
	isLeaf := func(v int) bool {
		return len(g.adj[v]) == 1 && len(g.adj[g.links[g.adj[v][0]].Other(v)]) > 1
	}
	var core []int // core node IDs, ascending
	for v := range g.nodes {
		if !isLeaf(v) {
			rt.anchor[v] = int32(len(core))
			rt.access[v] = -1
			core = append(core, v)
		}
	}
	for v := range g.nodes {
		if isLeaf(v) {
			lid := g.adj[v][0]
			rt.anchor[v] = rt.anchor[g.links[lid].Other(v)]
			rt.access[v] = int32(lid)
		}
	}
	n := len(core)
	rt.n = n
	rt.next = make([]hop, n*n)
	for i := range rt.next {
		rt.next[i].link = -1
	}
	// BFS from every core destination so that next-hop pointers chain
	// towards the destination, scanning adjacency in link-ID order and
	// stepping over leaves.
	queue := make([]int, 0, n)
	for di := 0; di < n; di++ {
		queue = append(queue[:0], di)
		for head := 0; head < len(queue); head++ {
			ui := queue[head]
			u := core[ui]
			for _, lid := range g.adj[u] {
				v := g.links[lid].Other(u)
				if rt.access[v] >= 0 {
					continue // a leaf: a dead end for routing
				}
				vi := int(rt.anchor[v])
				if vi != di && rt.next[vi*n+di].link < 0 {
					rt.next[vi*n+di] = hop{link: int32(lid), to: int32(ui)}
					queue = append(queue, vi)
				}
			}
		}
	}
	return rt
}

// Route returns the static route from a to b as a sequence of link IDs.
// The route is empty when a == b. It panics if b is unreachable from a
// (use Validate to ensure connectivity first).
func (g *Graph) Route(a, b int) []int {
	var out []int
	g.WalkRoute(a, b, func(lid int) { out = append(out, lid) })
	return out
}

// WalkRoute visits the link IDs on the static route from a to b, in path
// order, without allocating. It visits nothing when a == b and panics when
// b is unreachable, exactly as Route does. The hot selection paths (all-
// pairs scoring) use this form; Route remains for callers that want the
// path materialized.
func (g *Graph) WalkRoute(a, b int, visit func(linkID int)) {
	if a == b {
		return
	}
	rt := g.Routes()
	ai, bi := int(rt.anchor[a]), int(rt.anchor[b])
	if ai != bi && rt.next[ai*rt.n+bi].link < 0 {
		panic(fmt.Sprintf("topology: no route from node %d to node %d", a, b))
	}
	if l := rt.access[a]; l >= 0 {
		visit(int(l))
	}
	for u := ai; u != bi; {
		h := rt.next[u*rt.n+bi]
		visit(int(h.link))
		u = int(h.to)
	}
	if l := rt.access[b]; l >= 0 {
		visit(int(l))
	}
}

// Reachable reports whether b is reachable from a over the static routes.
func (g *Graph) Reachable(a, b int) bool {
	if a == b {
		return true
	}
	rt := g.Routes()
	ai, bi := int(rt.anchor[a]), int(rt.anchor[b])
	return ai == bi || rt.next[ai*rt.n+bi].link >= 0
}

// HopCount returns the number of links on the static route from a to b, or
// -1 when unreachable.
func (g *Graph) HopCount(a, b int) int {
	if !g.Reachable(a, b) {
		return -1
	}
	hops := 0
	g.WalkRoute(a, b, func(int) { hops++ })
	return hops
}

// PathNodes returns the node IDs visited on the route from a to b,
// inclusive of both endpoints.
func (g *Graph) PathNodes(a, b int) []int {
	out := []int{a}
	for _, lid := range g.Route(a, b) {
		out = append(out, g.links[lid].Other(out[len(out)-1]))
	}
	return out
}

// PathLatency returns the sum of link latencies along the route from a to b.
func (g *Graph) PathLatency(a, b int) float64 {
	sum := 0.0
	g.WalkRoute(a, b, func(lid int) { sum += g.links[lid].Latency })
	return sum
}

// FlowLinkCounts returns, for the all-pairs flow pattern over the given
// nodes, how many pairwise flows cross each link: counts[linkID] is the
// number of unordered node pairs whose static route uses the link. Links
// carried by no flow are absent from the map. This is the multiplicity a
// reservation ledger must debit per link: a link shared by k flows of an
// application demanding B bits/second per flow carries k*B.
func (g *Graph) FlowLinkCounts(nodes []int) map[int]int {
	counts := make(map[int]int)
	count := func(lid int) { counts[lid]++ }
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			g.WalkRoute(nodes[i], nodes[j], count)
		}
	}
	return counts
}

// PathBottleneck returns the minimum of value(linkID) over the route from a
// to b. For a == b it returns +Inf semantics via ok=false: the second
// return value reports whether the route has at least one link.
func (g *Graph) PathBottleneck(a, b int, value func(linkID int) float64) (float64, bool) {
	min, ok := 0.0, false
	g.WalkRoute(a, b, func(lid int) {
		if v := value(lid); !ok || v < min {
			min, ok = v, true
		}
	})
	return min, ok
}

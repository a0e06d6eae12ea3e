package topology

import "sort"

// Components returns the connected components of the graph considering only
// links for which alive(linkID) reports true. A nil alive function means all
// links are alive. Each component is a sorted slice of node IDs, and the
// components themselves are ordered by their smallest node ID. Isolated
// nodes form singleton components.
//
// The selection algorithms of the paper (Figures 2 and 3) repeatedly delete
// the minimum-bandwidth edge and re-examine components; they call this with
// an edge-alive bitmap rather than copying the graph.
func (g *Graph) Components(alive func(linkID int) bool) [][]int {
	n := len(g.nodes)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var out [][]int
	queue := make([]int, 0, n)
	for start := 0; start < n; start++ {
		if comp[start] >= 0 {
			continue
		}
		id := len(out)
		comp[start] = id
		queue = append(queue[:0], start)
		members := []int{start}
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, lid := range g.adj[u] {
				if alive != nil && !alive(lid) {
					continue
				}
				v := g.links[lid].Other(u)
				if comp[v] < 0 {
					comp[v] = id
					members = append(members, v)
					queue = append(queue, v)
				}
			}
		}
		sortInts(members)
		out = append(out, members)
	}
	return out
}

// OrderLinks returns the IDs of links passing alive (nil means all),
// sorted by ascending metric with ties broken by ascending link ID — the
// exact removal order of the Figure 2/3 edge-deletion loop.
func (g *Graph) OrderLinks(alive func(linkID int) bool, metric func(linkID int) float64) []int {
	order := make([]int, 0, g.NumLinks())
	for l := 0; l < g.NumLinks(); l++ {
		if alive == nil || alive(l) {
			order = append(order, l)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		mi, mj := metric(order[i]), metric(order[j])
		if mi != mj {
			return mi < mj
		}
		return order[i] < order[j]
	})
	return order
}

// ComponentOf returns the sorted node IDs of the component containing start,
// considering only alive links (nil means all alive).
func (g *Graph) ComponentOf(start int, alive func(linkID int) bool) []int {
	seen := make([]bool, len(g.nodes))
	seen[start] = true
	queue := []int{start}
	members := []int{start}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, lid := range g.adj[u] {
			if alive != nil && !alive(lid) {
				continue
			}
			v := g.links[lid].Other(u)
			if !seen[v] {
				seen[v] = true
				members = append(members, v)
				queue = append(queue, v)
			}
		}
	}
	sortInts(members)
	return members
}

// CountCompute returns how many of the given node IDs are compute nodes.
func (g *Graph) CountCompute(nodes []int) int {
	n := 0
	for _, id := range nodes {
		if g.nodes[id].Kind == Compute {
			n++
		}
	}
	return n
}

// ComputeSubset returns the compute-node subset of nodes, preserving order.
func (g *Graph) ComputeSubset(nodes []int) []int {
	var out []int
	for _, id := range nodes {
		if g.nodes[id].Kind == Compute {
			out = append(out, id)
		}
	}
	return out
}

// LinksWithin returns the IDs of alive links whose both endpoints lie in the
// given node set. The node set must be sorted or not; membership is checked
// via a map. A nil alive function means all links.
func (g *Graph) LinksWithin(nodes []int, alive func(linkID int) bool) []int {
	in := make(map[int]bool, len(nodes))
	for _, id := range nodes {
		in[id] = true
	}
	var out []int
	for i := range g.links {
		if alive != nil && !alive(i) {
			continue
		}
		if in[g.links[i].A] && in[g.links[i].B] {
			out = append(out, i)
		}
	}
	return out
}

// sortInts sorts a small int slice ascending (insertion sort; component
// slices are small and this avoids pulling in sort for a hot path).
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

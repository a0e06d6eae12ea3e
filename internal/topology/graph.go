// Package topology models the logical network topology graph that the Remos
// query interface exports and that the node selection algorithms consume.
//
// A graph contains compute nodes (processors available for computation) and
// network nodes (routers/switches). Links connect nodes and carry a peak
// capacity (maxbw, bits/second) and a latency. The dynamic state of the
// network — per-node load averages and per-link available bandwidth — is a
// Snapshot layered over the static graph.
//
// The package also provides the graph machinery the selection algorithms
// need: static shortest-path routing, connected components over edge
// subsets, and bottleneck-bandwidth path analysis.
package topology

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// NodeKind distinguishes processors from network devices.
type NodeKind int

const (
	// Compute nodes are processors available for application execution.
	Compute NodeKind = iota
	// Network nodes are routers or switches; they route traffic but
	// cannot host computation.
	Network
)

// String returns "compute" or "network".
func (k NodeKind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Network:
		return "network"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is a vertex of the topology graph.
type Node struct {
	// ID is the dense index of the node within its graph, assigned by the
	// graph when the node is added.
	ID int
	// Name is the unique human-readable name (e.g. "m-16", "gibraltar").
	Name string
	// Kind says whether the node can run computation.
	Kind NodeKind
	// Speed is the node's relative computation capacity; 1.0 is the
	// reference node type (§3.3 "Heterogeneous links and nodes").
	Speed float64
	// Arch is an optional architecture tag (e.g. "alpha") used by
	// placement constraints from the application specification interface.
	Arch string
	// MemoryMB is the node's physical memory in megabytes (0 = unknown).
	// §3.4 lists memory availability among the factors Remos reports;
	// selection can require a minimum via the request's memory floor.
	MemoryMB float64
}

// Link is an edge of the topology graph.
type Link struct {
	// ID is the dense index of the link within its graph.
	ID int
	// A and B are the endpoint node IDs. For undirected (shared-fabric)
	// links the order is irrelevant.
	A, B int
	// Capacity is the peak bandwidth maxbw in bits per second.
	Capacity float64
	// Latency is the one-way link latency in seconds.
	Latency float64
	// FullDuplex reports whether the two directions have independent
	// capacity (two distinct fabrics, §3.3 "Independent and shared
	// network links"). When false the directions share one fabric.
	FullDuplex bool
}

// Other returns the endpoint of l that is not node, and panics if node is
// not an endpoint.
func (l *Link) Other(node int) int {
	switch node {
	case l.A:
		return l.B
	case l.B:
		return l.A
	default:
		panic(fmt.Sprintf("topology: node %d is not an endpoint of link %d", node, l.ID))
	}
}

// Graph is a logical network topology. Build one with NewGraph and the
// AddComputeNode/AddNetworkNode/Connect methods; the structure is immutable
// once routing has been computed. A Graph must not be copied, and must not
// be mutated while another goroutine reads it; concurrent readers are safe,
// including their first route query.
type Graph struct {
	nodes  []Node
	links  []Link
	byName map[string]int
	// adj[n] lists the link IDs incident to node n, sorted ascending for
	// deterministic traversal.
	adj [][]int
	// routes is built lazily by Routes() under routesMu and dropped by
	// every mutation.
	routes   atomic.Pointer[routeTable]
	routesMu sync.Mutex
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{byName: make(map[string]int)}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the number of links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Node returns the node with the given ID. It panics on an invalid ID.
func (g *Graph) Node(id int) *Node { return &g.nodes[id] }

// Link returns the link with the given ID. It panics on an invalid ID.
func (g *Graph) Link(id int) *Link { return &g.links[id] }

// Nodes returns all nodes in ID order. The slice is shared; do not modify.
func (g *Graph) Nodes() []Node { return g.nodes }

// Links returns all links in ID order. The slice is shared; do not modify.
func (g *Graph) Links() []Link { return g.links }

// NodeByName returns the ID of the named node, or -1 if absent.
func (g *Graph) NodeByName(name string) int {
	id, ok := g.byName[name]
	if !ok {
		return -1
	}
	return id
}

// MustNode returns the ID of the named node and panics if it is absent.
func (g *Graph) MustNode(name string) int {
	id := g.NodeByName(name)
	if id < 0 {
		panic(fmt.Sprintf("topology: no node named %q", name))
	}
	return id
}

// Incident returns the IDs of links incident to node, sorted ascending. The
// slice is shared; do not modify.
func (g *Graph) Incident(node int) []int { return g.adj[node] }

// ComputeNodes returns the IDs of all compute nodes in ascending order, in
// a slice the caller owns.
func (g *Graph) ComputeNodes() []int {
	out := make([]int, 0, g.NumComputeNodes())
	for i := range g.nodes {
		if g.nodes[i].Kind == Compute {
			out = append(out, i)
		}
	}
	return out
}

// NumComputeNodes returns the number of compute nodes.
func (g *Graph) NumComputeNodes() int {
	n := 0
	for i := range g.nodes {
		if g.nodes[i].Kind == Compute {
			n++
		}
	}
	return n
}

// addNode appends a node, enforcing unique names.
func (g *Graph) addNode(name string, kind NodeKind, speed float64, arch string) int {
	if name == "" {
		panic("topology: node name must be non-empty")
	}
	if _, dup := g.byName[name]; dup {
		panic(fmt.Sprintf("topology: duplicate node name %q", name))
	}
	if speed <= 0 {
		panic(fmt.Sprintf("topology: node %q speed %v must be positive", name, speed))
	}
	id := len(g.nodes)
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Kind: kind, Speed: speed, Arch: arch})
	g.byName[name] = id
	g.adj = append(g.adj, nil)
	g.routes.Store(nil)
	return id
}

// AddComputeNode adds a compute node with relative speed 1 and returns its ID.
func (g *Graph) AddComputeNode(name string) int {
	return g.addNode(name, Compute, 1, "")
}

// AddComputeNodeSpec adds a compute node with an explicit relative speed and
// architecture tag.
func (g *Graph) AddComputeNodeSpec(name string, speed float64, arch string) int {
	return g.addNode(name, Compute, speed, arch)
}

// AddNetworkNode adds a router/switch node and returns its ID.
func (g *Graph) AddNetworkNode(name string) int {
	return g.addNode(name, Network, 1, "")
}

// SetNodeMemory records a node's physical memory in megabytes.
func (g *Graph) SetNodeMemory(id int, mb float64) {
	if mb < 0 {
		panic(fmt.Sprintf("topology: negative memory %v for node %d", mb, id))
	}
	g.nodes[id].MemoryMB = mb
}

// LinkOpts carries optional link attributes for Connect.
type LinkOpts struct {
	// Latency is the one-way latency in seconds (default 0).
	Latency float64
	// FullDuplex gives the two directions independent capacity.
	FullDuplex bool
}

// Connect adds a link between nodes a and b with the given peak capacity in
// bits/second and returns the link ID.
func (g *Graph) Connect(a, b int, capacity float64, opts LinkOpts) int {
	if a < 0 || a >= len(g.nodes) || b < 0 || b >= len(g.nodes) {
		panic(fmt.Sprintf("topology: Connect(%d, %d) out of range", a, b))
	}
	if a == b {
		panic(fmt.Sprintf("topology: self-loop on node %d", a))
	}
	if capacity <= 0 {
		panic(fmt.Sprintf("topology: link capacity %v must be positive", capacity))
	}
	if opts.Latency < 0 {
		panic(fmt.Sprintf("topology: link latency %v must be non-negative", opts.Latency))
	}
	id := len(g.links)
	g.links = append(g.links, Link{
		ID: id, A: a, B: b,
		Capacity:   capacity,
		Latency:    opts.Latency,
		FullDuplex: opts.FullDuplex,
	})
	g.adj[a] = append(g.adj[a], id)
	g.adj[b] = append(g.adj[b], id)
	g.routes.Store(nil)
	return id
}

// ConnectNames is Connect with node names instead of IDs.
func (g *Graph) ConnectNames(a, b string, capacity float64, opts LinkOpts) int {
	return g.Connect(g.MustNode(a), g.MustNode(b), capacity, opts)
}

// Validate checks structural invariants: at least one compute node, a
// connected graph, unique names (enforced at construction), and positive
// capacities (enforced at construction). It returns a descriptive error for
// the first violation found.
func (g *Graph) Validate() error {
	if len(g.nodes) == 0 {
		return fmt.Errorf("topology: graph has no nodes")
	}
	if g.NumComputeNodes() == 0 {
		return fmt.Errorf("topology: graph has no compute nodes")
	}
	comps := g.Components(nil)
	if len(comps) != 1 {
		return fmt.Errorf("topology: graph is disconnected (%d components)", len(comps))
	}
	return nil
}

// IsTree reports whether the graph is connected and acyclic, i.e. the
// setting in which the paper's Figure 2/3 algorithms are provably optimal.
func (g *Graph) IsTree() bool {
	return len(g.nodes) > 0 &&
		len(g.links) == len(g.nodes)-1 &&
		len(g.Components(nil)) == 1
}

// Degree returns the number of links incident to node.
func (g *Graph) Degree(node int) int { return len(g.adj[node]) }

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("topology.Graph{%d nodes (%d compute), %d links}",
		len(g.nodes), g.NumComputeNodes(), len(g.links))
}

// SortedNames returns all node names sorted alphabetically; useful for
// stable output in tools and tests.
func (g *Graph) SortedNames() []string {
	names := make([]string, len(g.nodes))
	for i := range g.nodes {
		names[i] = g.nodes[i].Name
	}
	sort.Strings(names)
	return names
}

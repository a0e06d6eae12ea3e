// Package hierarchy implements cluster-first selection for large
// topologies: it collapses groups of interchangeable access-layer compute
// nodes into logical clusters and hands them to core's bottleneck sweep as
// a grouping, so each cluster is one union-find vertex instead of one per
// member. The sweep is core's — this package has none of its own — and a
// grouped run returns exactly, bit for bit, the placement an ungrouped run
// returns (TestQuotientEquivalence holds it to that); requests outside the
// class that runs grouped go to core.SelectOpt, the same sweep ungrouped.
//
// The collapse follows the logical-homogeneous-cluster idea of Estefanel &
// Mounié (cs/0408033): a cluster is a maximal group of degree-1 compute
// nodes hanging off one attachment node whose static attributes (speed,
// architecture, memory) and access links (capacity, latency, duplex,
// available bandwidth) are indistinguishable. Inside such a group the sweep
// metric is uniform for every objective and reference capacity, so the
// entire group enters and leaves the edge-deletion sweep at one threshold —
// which is what makes a single vertex with one activation edge an exact
// stand-in for the whole group.
package hierarchy

import (
	"cmp"
	"slices"

	"nodeselect/internal/core"
	"nodeselect/internal/topology"
)

// Bundle is one logical cluster: interchangeable degree-1 compute nodes
// sharing an attachment node and an identical access-link signature.
type Bundle struct {
	// Anchor is the attachment node every member links to. It is usually
	// a switch but may be any node of degree > 1.
	Anchor int
	// Members are the clustered compute nodes, ranked by descending
	// effective CPU with ties broken by ascending ID — the exact order
	// the sweep's topCPUNodes would consider them in.
	Members []int
	// Links[i] is Members[i]'s access link.
	Links []int
	// MinID is the smallest member ID; it is the cluster's contribution
	// to the component-identity tie-break of the sweep.
	MinID int
	// AvailBW and Capacity are the (uniform) access-link measurements the
	// cluster was formed under.
	AvailBW, Capacity float64
}

// Partition is the cluster decomposition of one snapshot: the bundles and
// the residual backbone (every node not collapsed into a bundle). Routes
// are the graph's own; the partition only groups and ranks. A partition is
// valid only for snapshots carrying the same measurements it was built
// from; services cache it per measurement epoch exactly like the plan
// cache.
type Partition struct {
	g       *topology.Graph
	bundles []Bundle
	// grouping is the bundles in the form core's sweep takes them.
	grouping *core.Grouping
}

// bundleSig is the equivalence signature members of one bundle must share.
// Any difference in these fields makes two leaves non-interchangeable under
// some request, so they land in distinct bundles (or in the backbone).
type bundleSig struct {
	anchor     int
	speed      float64
	arch       string
	memoryMB   float64
	capacity   float64
	latency    float64
	fullDuplex bool
	availBW    float64
}

// Build computes the partition of a snapshot. Degree-1 compute nodes are
// grouped by (anchor, node signature, access-link signature, access
// available bandwidth); groups of at least two become bundles, everything
// else stays in the backbone. It is a sort and a cut, anchor by anchor: the
// anchor's leaf links ordered by signature, each run of == signatures (so a
// NaN measurement groups with nothing, itself included) one group, every
// bundle's Members and Links sub-slices of two arrays sized once.
func Build(s *topology.Snapshot) *Partition {
	g := s.Graph
	p := &Partition{g: g}

	// anchor is the attachment node whose leaves are being grouped; leaf is
	// the other end of one of its links.
	anchor := 0
	leaf := func(l int) int { return g.Link(l).Other(anchor) }
	sigOf := func(l int) bundleSig {
		node, lk := g.Node(leaf(l)), g.Link(l)
		return bundleSig{anchor: anchor, speed: node.Speed, arch: node.Arch, memoryMB: node.MemoryMB,
			capacity: lk.Capacity, latency: lk.Latency, fullDuplex: lk.FullDuplex, availBW: s.AvailBW[l]}
	}
	// bySig is a total order that puts == signatures next to each other
	// (cmp.Compare gives ±0 one place and every NaN another), ascending leaf
	// ID within one. The measurement decides most comparisons: it is read
	// first, from where it lies.
	bySig := func(la, lb int) int {
		if c := cmp.Compare(s.AvailBW[la], s.AvailBW[lb]); c != 0 {
			return c
		}
		a, b := leaf(la), leaf(lb)
		na, nb, ka, kb := g.Node(a), g.Node(b), g.Link(la), g.Link(lb)
		duplex := 0
		if ka.FullDuplex != kb.FullDuplex {
			duplex = 1
			if kb.FullDuplex {
				duplex = -1
			}
		}
		return cmp.Or(cmp.Compare(na.Speed, nb.Speed), cmp.Compare(na.Arch, nb.Arch),
			cmp.Compare(na.MemoryMB, nb.MemoryMB), cmp.Compare(ka.Capacity, kb.Capacity),
			cmp.Compare(ka.Latency, kb.Latency), duplex, cmp.Compare(a, b))
	}

	n := g.NumComputeNodes()
	members, links := make([]int, 0, n), make([]int, 0, n) // never regrown: the bundles alias them
	// A degree-1 anchor would make membership ambiguous (each endpoint could
	// collapse into the other); keep both loose.
	for anchor = 0; anchor < g.NumNodes(); anchor++ {
		if g.Degree(anchor) <= 1 {
			continue
		}
		lo := len(links)
		for _, l := range g.Incident(anchor) {
			if id := leaf(l); g.Degree(id) == 1 && g.Node(id).Kind == topology.Compute {
				links = append(links, l)
			}
		}
		slices.SortFunc(links[lo:], bySig)
		for _, l := range links[lo:] {
			members = append(members, leaf(l))
		}
		for i, j := lo, 0; i < len(links); i = j {
			sig := sigOf(links[i])
			for j = i + 1; j < len(links) && sigOf(links[j]) == sig; j++ {
			}
			if j-i < 2 {
				continue // a lone leaf gains nothing from collapsing
			}
			// Clipped, so an append to one bundle cannot write into the next.
			b := Bundle{Anchor: anchor, Members: members[i:j:j], Links: links[i:j:j],
				MinID: members[i], AvailBW: sig.availBW, Capacity: sig.capacity}
			// Rank members exactly as the sweep's topCPUNodes orders
			// candidates: effective CPU descending, ID ascending.
			slices.SortFunc(b.Members, func(a, c int) int {
				return cmp.Or(cmp.Compare(s.EffectiveCPU(c), s.EffectiveCPU(a)), cmp.Compare(a, c))
			})
			for k, id := range b.Members {
				b.Links[k] = g.Incident(id)[0]
			}
			p.bundles = append(p.bundles, b)
		}
	}
	// Anchor order must not leak into bundle numbering: order bundles by
	// their smallest member.
	slices.SortFunc(p.bundles, func(a, b Bundle) int { return cmp.Compare(a.MinID, b.MinID) })
	sweepGroups := make([]core.Group, len(p.bundles))
	for j, b := range p.bundles {
		sweepGroups[j] = core.Group{Anchor: b.Anchor, Members: b.Members, Link: b.Links[0], MinID: b.MinID}
	}
	p.grouping = core.NewGrouping(g, sweepGroups)
	return p
}

// Graph returns the graph the partition was built over.
func (p *Partition) Graph() *topology.Graph { return p.g }

// Clusters returns the number of logical clusters.
func (p *Partition) Clusters() int { return len(p.bundles) }

// Bundles returns the logical clusters, ordered by smallest member ID.
func (p *Partition) Bundles() []Bundle { return p.bundles }

// CollapsedNodes returns how many compute nodes were absorbed into
// clusters.
func (p *Partition) CollapsedNodes() int {
	total := 0
	for i := range p.bundles {
		total += len(p.bundles[i].Members)
	}
	return total
}

// BackboneNodes returns the number of nodes left uncollapsed (switches,
// routers, and loose compute nodes).
func (p *Partition) BackboneNodes() int { return p.g.NumNodes() - p.CollapsedNodes() }

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
	"sort"

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
// else stays in the backbone.
func Build(s *topology.Snapshot) *Partition {
	g := s.Graph
	p := &Partition{g: g}

	groups := make(map[bundleSig][]int)
	for _, id := range g.ComputeNodes() {
		if g.Degree(id) != 1 {
			continue
		}
		lid := g.Incident(id)[0]
		lk := g.Link(lid)
		anchor := lk.Other(id)
		// A degree-1 anchor would make membership ambiguous (each
		// endpoint could collapse into the other); keep both loose.
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

	for sig, members := range groups {
		if len(members) < 2 {
			continue // a lone leaf gains nothing from collapsing
		}
		b := Bundle{
			Anchor:   sig.anchor,
			Members:  members, // ascending ID (ComputeNodes order); re-ranked below
			Links:    make([]int, len(members)),
			MinID:    members[0],
			AvailBW:  sig.availBW,
			Capacity: sig.capacity,
		}
		// Rank members exactly as the sweep's topCPUNodes orders
		// candidates: effective CPU descending, ID ascending.
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
		p.bundles = append(p.bundles, b)
	}
	// The grouping map's iteration order must not leak into bundle
	// numbering: order bundles by their smallest member.
	sort.Slice(p.bundles, func(i, j int) bool { return p.bundles[i].MinID < p.bundles[j].MinID })
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

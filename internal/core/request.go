// Package core implements the paper's central contribution: procedures that
// select a set of compute nodes from a logical network topology so as to
// maximize the computation capacity, the communication capacity, or a
// balanced combination of the two available to an application.
//
// The three fundamental algorithms follow §3.2 of the paper:
//
//   - MaxCompute selects the m nodes with the highest available CPU
//     fraction cpu = 1/(1+loadavg).
//   - MaxBandwidth (paper Figure 2) maximizes the minimum available
//     bandwidth between any pair of selected nodes by repeatedly deleting
//     the minimum-bandwidth edge while a connected component with at least
//     m compute nodes survives.
//   - Balanced (paper Figure 3) maximizes
//     minresource = min(min fractional cpu, min fractional bandwidth)
//     by the same bottleneck-edge deletion, re-picking the best compute
//     nodes per surviving component.
//
// MaxBandwidth and Balanced are one procedure — delete bottleneck edges in
// rising order and take the best-CPU m nodes of every surviving component —
// and run as one union-find sweep (Sweep, sweep.go) that enumerates the same
// components in one near-linear pass, optionally over pre-merged groups of
// interchangeable leaves (Grouping; internal/hierarchy builds them). The
// literal edge-deletion loop stays beside it as the oracle every
// equivalence test compares against and as what the paper-literal
// ablations (Options.PaperEarlyStop, PaperSingleEdgeRemoval) run.
//
// Score measures one concrete node set and returns it sorted in the Result.
// The sweep scores the many sets it enumerates where they lie — IDs in one
// arena of its pooled working set, scoreSorted over them, no Result.Nodes —
// and copies a set out for the winner, and for each candidate an
// Options.Observer records, only.
//
// The generalizations of §3.3 are supported through Request: heterogeneous
// links (reference capacity) and nodes (relative speeds), prioritization of
// computation versus communication, fixed bandwidth/CPU floors, restricted
// eligibility (architecture or group constraints) and pinned nodes.
package core

import (
	"errors"
	"fmt"
	"math"

	"nodeselect/internal/topology"
)

// Request describes what an application needs from node selection. It is
// the algorithm-facing form of the application specification interface
// (§2.1 of the paper).
type Request struct {
	// M is the number of compute nodes required. Must be >= 1.
	M int

	// ComputePriority weights computation against communication in the
	// balanced objective (§3.3 "Prioritization"). With priority p, the
	// objective is min(mincpu, p * minbw): p = 2 makes 50% CPU
	// availability equivalent to 25% bandwidth availability, exactly the
	// paper's example. Zero means 1 (equal weight).
	ComputePriority float64

	// RefCapacity, when positive, is the reference link capacity in
	// bits/second used to express available bandwidth as a fraction on
	// heterogeneous networks (§3.3 "Heterogeneous links"). Zero means
	// each link's own capacity is used (homogeneous interpretation).
	RefCapacity float64

	// MinBW, when positive, is a fixed bandwidth floor in bits/second:
	// links offering less are unusable for this application (§3.3 "Fixed
	// computation and communication requirements").
	MinBW float64

	// MinCPU, when positive, is a fixed floor on the effective CPU
	// fraction: nodes offering less are ineligible.
	MinCPU float64

	// MinMemoryMB, when positive, excludes compute nodes with less
	// physical memory (§3.4 lists memory among the factors Remos
	// reports; this models a static per-node capacity requirement).
	MinMemoryMB float64

	// MaxPairLatency, when positive, is a ceiling in seconds on the
	// one-way path latency between any pair of selected nodes (§3.4
	// "Latency and other considerations"). Selections violating it are
	// rejected.
	MaxPairLatency float64

	// Eligible, when non-nil, restricts the candidate compute nodes
	// (architecture constraints, server pools, and similar group
	// requirements from the application specification interface).
	Eligible func(node int) bool

	// Pinned lists compute nodes that must be part of the selection
	// (e.g. a server that must run on a specific machine).
	Pinned []int
}

// Priority returns the effective compute priority: ComputePriority, or 1
// when unset.
func (r Request) Priority() float64 {
	if r.ComputePriority <= 0 {
		return 1
	}
	return r.ComputePriority
}

// Errors returned by the selection procedures.
var (
	// ErrTooFewNodes means the topology does not contain M eligible
	// compute nodes at all.
	ErrTooFewNodes = errors.New("core: not enough eligible compute nodes")
	// ErrNoFeasibleSet means constraints (floors, pinning, connectivity)
	// cannot be satisfied under the current network conditions.
	ErrNoFeasibleSet = errors.New("core: no feasible node set under the given constraints")
	// ErrBadRequest means the request itself is malformed.
	ErrBadRequest = errors.New("core: malformed request")
)

// Result reports a selected node set and the resource fractions it was
// scored with.
type Result struct {
	// Nodes is the selected compute node set, sorted by node ID.
	Nodes []int

	// MinCPU is the minimum effective CPU fraction across the selected
	// nodes (cpu fraction times relative speed).
	MinCPU float64

	// PairMinBW is the minimum available bandwidth, in bits/second,
	// between any pair of selected nodes along static routes. +Inf when
	// only one node is selected.
	PairMinBW float64

	// MinBWFactor is PairMinBW expressed as a fraction: against the
	// reference capacity when the request sets one, otherwise as the
	// minimum per-link fraction along the selected pairs' routes. +Inf
	// when only one node is selected.
	MinBWFactor float64

	// MinResource is min(MinCPU, priority * MinBWFactor), the balanced
	// objective of Figure 3 evaluated on the actual selected set.
	MinResource float64

	// MaxPairLatency is the largest one-way path latency, in seconds,
	// between any pair of selected nodes (0 when only one node).
	MaxPairLatency float64

	// BottleneckLink is the link ID at which PairMinBW is attained — the
	// binding communication bottleneck of the placement — or -1 when the
	// selection spans fewer than two nodes. Admission control uses it to
	// name the constraint that limits a placement.
	BottleneckLink int
}

// BottleneckName renders the bottleneck link as "a--b" endpoint names, or
// "" when the result has no bottleneck link.
func (r Result) BottleneckName(g *topology.Graph) string {
	if r.BottleneckLink < 0 || r.BottleneckLink >= g.NumLinks() {
		return ""
	}
	l := g.Link(r.BottleneckLink)
	return g.Node(l.A).Name + "--" + g.Node(l.B).Name
}

// names renders the selected node names using the snapshot's graph.
func (r Result) Names(g *topology.Graph) []string {
	out := make([]string, len(r.Nodes))
	for i, id := range r.Nodes {
		out[i] = g.Node(id).Name
	}
	return out
}

// String returns a compact rendering for logs and CLI output.
func (r Result) String() string {
	return fmt.Sprintf("nodes=%v mincpu=%.3f minbw=%s minresource=%.3f",
		r.Nodes, r.MinCPU, topology.FormatBandwidth(finiteOr(r.PairMinBW, 0)), r.MinResource)
}

func finiteOr(v, alt float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return alt
	}
	return v
}

// check validates the request's form against the snapshot: everything
// validate reports except a shortage of eligible nodes.
func (r Request) check(s *topology.Snapshot) error {
	if r.M < 1 {
		return fmt.Errorf("%w: M = %d", ErrBadRequest, r.M)
	}
	if s == nil || s.Graph == nil {
		return fmt.Errorf("%w: nil snapshot", ErrBadRequest)
	}
	for _, id := range r.Pinned {
		if id < 0 || id >= s.Graph.NumNodes() || s.Graph.Node(id).Kind != topology.Compute {
			return fmt.Errorf("%w: pinned node %d is not a compute node", ErrBadRequest, id)
		}
	}
	if n := len(r.pinnedSet()); n > r.M {
		return fmt.Errorf("%w: %d pinned nodes exceed M = %d", ErrBadRequest, n, r.M)
	}
	// Pinned nodes must themselves satisfy the floors.
	for _, id := range r.Pinned {
		if r.MinCPU > 0 && s.EffectiveCPU(id) < r.MinCPU {
			return fmt.Errorf("%w: pinned node %d violates the CPU floor", ErrNoFeasibleSet, id)
		}
		if r.MinMemoryMB > 0 && s.Graph.Node(id).MemoryMB < r.MinMemoryMB {
			return fmt.Errorf("%w: pinned node %d violates the memory floor", ErrNoFeasibleSet, id)
		}
	}
	return nil
}

// admits reports whether compute node id passes the eligibility restriction
// and the CPU and memory floors. A pinned node is eligible regardless.
func (r Request) admits(s *topology.Snapshot, id int) bool {
	if r.Eligible != nil && !r.Eligible(id) {
		return false
	}
	if r.MinCPU > 0 && s.EffectiveCPU(id) < r.MinCPU {
		return false
	}
	return r.MinMemoryMB <= 0 || s.Graph.Node(id).MemoryMB >= r.MinMemoryMB
}

// tooFew is the error for a topology with fewer than M eligible nodes.
func (r Request) tooFew(eligible int) error {
	return fmt.Errorf("%w: %d eligible, %d required", ErrTooFewNodes, eligible, r.M)
}

// validate checks the request against the snapshot and returns the eligible
// compute node IDs (sorted ascending).
func (r Request) validate(s *topology.Snapshot) ([]int, error) {
	if err := r.check(s); err != nil {
		return nil, err
	}
	pinned := r.pinnedSet()
	var eligible []int
	for id := range s.Graph.Nodes() {
		if s.Graph.Node(id).Kind == topology.Compute && (pinned[id] || r.admits(s, id)) {
			eligible = append(eligible, id)
		}
	}
	if len(eligible) < r.M {
		return nil, r.tooFew(len(eligible))
	}
	return eligible, nil
}

// linkUsable reports whether a link satisfies the request's bandwidth floor.
func (r Request) linkUsable(s *topology.Snapshot, link int) bool {
	return r.MinBW <= 0 || s.AvailBW[link] >= r.MinBW
}

// pinnedSet returns the pinned nodes as a set, nil when there are none.
func (r Request) pinnedSet() map[int]bool {
	if len(r.Pinned) == 0 {
		return nil
	}
	m := make(map[int]bool, len(r.Pinned))
	for _, id := range r.Pinned {
		m[id] = true
	}
	return m
}

// Package netsim is a discrete-event simulator of a network of
// timeshared compute hosts connected by shared links. It stands in for the
// paper's CMU hardware testbed: hosts run tasks under processor sharing
// (the idealization behind the paper's cpu = 1/(1+loadavg) formula) and
// maintain Unix-style exponentially-decayed load averages; link bandwidth
// is shared between concurrent flows by max-min fairness, the standard
// idealization of TCP sharing on a LAN.
//
// Every task and flow is tagged as application or background so that
// measurement (internal/remos) can report network conditions excluding the
// application's own load — the requirement §3.3 places on dynamic
// migration.
package netsim

import (
	"fmt"

	"nodeselect/internal/sim"
	"nodeselect/internal/topology"
)

// Class tags work as belonging to the measured application or to the
// competing background (load/traffic generators, other users).
type Class int

const (
	// Background work competes with the application; it is what Remos
	// measures and what node selection avoids.
	Background Class = iota
	// Application work belongs to the program being placed; measurement
	// can exclude it.
	Application
)

// String returns "background" or "application".
func (c Class) String() string {
	if c == Application {
		return "application"
	}
	return "background"
}

// Config tunes the simulator.
type Config struct {
	// LoadAvgWindow is the time constant, in seconds, of the
	// exponentially-decayed run-queue average (Unix 1-minute load average
	// corresponds to 60). Zero means 60.
	LoadAvgWindow float64
}

func (c Config) window() float64 {
	if c.LoadAvgWindow <= 0 {
		return 60
	}
	return c.LoadAvgWindow
}

// Network simulates hosts and links over a topology graph.
type Network struct {
	engine *sim.Engine
	graph  *topology.Graph
	cfg    Config

	hosts    []*Host
	channels []*channel // flattened per-link, per-direction capacity pools
	// chanIndex[link][dir] is the channel for a link direction; for
	// half-duplex links both directions share channel [link][0].
	chanIndex [][2]int

	flows          []*Flow // active flows in start order
	flowSeq        int
	flowStamp      float64    // time flows' progress was last advanced
	nextCompletion *sim.Event // single global next flow completion
}

// New builds a simulator over the graph. The graph must validate.
func New(engine *sim.Engine, g *topology.Graph, cfg Config) *Network {
	if err := g.Validate(); err != nil {
		panic(fmt.Sprintf("netsim: invalid topology: %v", err))
	}
	n := &Network{engine: engine, graph: g, cfg: cfg}
	n.hosts = make([]*Host, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		n.hosts[i] = newHost(n, i)
	}
	n.chanIndex = make([][2]int, g.NumLinks())
	for l := 0; l < g.NumLinks(); l++ {
		link := g.Link(l)
		ch0 := &channel{net: n, link: l, dir: 0, capacity: link.Capacity}
		n.chanIndex[l][0] = len(n.channels)
		n.channels = append(n.channels, ch0)
		if link.FullDuplex {
			ch1 := &channel{net: n, link: l, dir: 1, capacity: link.Capacity}
			n.chanIndex[l][1] = len(n.channels)
			n.channels = append(n.channels, ch1)
		} else {
			n.chanIndex[l][1] = n.chanIndex[l][0]
		}
	}
	return n
}

// Engine returns the event engine driving this network.
func (n *Network) Engine() *sim.Engine { return n.engine }

// Graph returns the simulated topology.
func (n *Network) Graph() *topology.Graph { return n.graph }

// Now returns the current simulation time.
func (n *Network) Now() float64 { return n.engine.Now() }

// Host returns the host simulator for a node.
func (n *Network) Host(node int) *Host { return n.hosts[node] }

// ActiveFlows returns the number of in-flight flows.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// channelFor returns the capacity pool used by a link in direction dir
// (0 = A->B, 1 = B->A). Half-duplex links return the same pool for both.
func (n *Network) channelFor(link, dir int) *channel {
	return n.channels[n.chanIndex[link][dir]]
}

// LinkBits returns the cumulative bits carried by a link up to now,
// summed over both directions. With cls == Background only background
// traffic is counted; with Application only application traffic;
// see LinkBitsTotal for everything.
func (n *Network) LinkBits(link int, cls Class) float64 {
	ch0 := n.channelFor(link, 0)
	ch1 := n.channelFor(link, 1)
	total := ch0.bits(n.Now(), cls)
	if ch1 != ch0 {
		total += ch1.bits(n.Now(), cls)
	}
	return total
}

// LinkBitsTotal returns the cumulative bits carried by a link (both
// classes, both directions).
func (n *Network) LinkBitsTotal(link int) float64 {
	return n.LinkBits(link, Background) + n.LinkBits(link, Application)
}

// LinkBusyBW returns the instantaneous bandwidth, in bits/second, currently
// consumed on the link in its most utilized direction. With backgroundOnly
// true only background flows are counted.
func (n *Network) LinkBusyBW(link int, backgroundOnly bool) float64 {
	ch0 := n.channelFor(link, 0)
	ch1 := n.channelFor(link, 1)
	u0 := ch0.busyRate(backgroundOnly)
	if ch1 == ch0 {
		return u0
	}
	u1 := ch1.busyRate(backgroundOnly)
	if u1 > u0 {
		return u1
	}
	return u0
}

// Snapshot produces a topology snapshot of current conditions, the form the
// selection algorithms consume directly (bypassing the Remos measurement
// path; internal/remos builds windowed snapshots from counters instead).
//
// With backgroundOnly true, the application's own tasks and flows are
// excluded from load averages and link utilization, as §3.3 requires for
// migration decisions.
func (n *Network) Snapshot(backgroundOnly bool) *topology.Snapshot {
	s := topology.NewSnapshot(n.graph)
	s.Time = n.Now()
	for i, h := range n.hosts {
		s.LoadAvg[i] = h.LoadAvg(backgroundOnly)
	}
	for l := 0; l < n.graph.NumLinks(); l++ {
		if n.LinkFailed(l) {
			s.SetAvailBW(l, 0)
			continue
		}
		busy := n.LinkBusyBW(l, backgroundOnly)
		s.SetAvailBW(l, n.graph.Link(l).Capacity-busy)
	}
	return s
}

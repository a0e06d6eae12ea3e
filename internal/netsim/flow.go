package netsim

import (
	"fmt"
	"math"
)

// bitEps is the residual transfer size below which a flow counts as
// complete. Accumulated floating-point error on a long simulation can leave
// a few thousandths of a bit outstanding; retiring such flows immediately
// avoids scheduling completion events closer together than the clock's
// resolution.
const bitEps = 1e-3

// channel is one direction's capacity pool of a link. Half-duplex links
// have a single channel shared by both directions; full-duplex links have
// one per direction. Flows crossing a channel share its capacity max-min
// fairly.
type channel struct {
	net      *Network
	link     int
	dir      int
	capacity float64

	flows []*Flow // active flows crossing this channel, in start order

	// failed marks the channel out of service (see failure.go).
	failed bool

	// Cumulative bit counters per class, advanced lazily from the
	// current aggregate rates. These are what the Remos agents export,
	// mirroring SNMP interface octet counters.
	bitsBG, bitsApp float64
	rateBG, rateApp float64
	stamp           float64
}

// advanceCounters accrues carried bits up to now at the current rates.
func (c *channel) advanceCounters(now float64) {
	dt := now - c.stamp
	if dt > 0 {
		c.bitsBG += c.rateBG * dt
		c.bitsApp += c.rateApp * dt
	}
	c.stamp = now
}

// setRates records new aggregate rates, first accruing under the old ones.
func (c *channel) setRates(now, bg, app float64) {
	c.advanceCounters(now)
	c.rateBG, c.rateApp = bg, app
}

// bits returns the cumulative bits carried for one class up to now.
func (c *channel) bits(now float64, cls Class) float64 {
	c.advanceCounters(now)
	if cls == Background {
		return c.bitsBG
	}
	return c.bitsApp
}

// busyRate returns the instantaneous aggregate rate.
func (c *channel) busyRate(backgroundOnly bool) float64 {
	if backgroundOnly {
		return c.rateBG
	}
	return c.rateBG + c.rateApp
}

// removeFlow deletes a flow from the channel's list, preserving order.
func (c *channel) removeFlow(f *Flow) {
	for i, other := range c.flows {
		if other == f {
			c.flows = append(c.flows[:i], c.flows[i+1:]...)
			return
		}
	}
}

// Flow is an in-flight data transfer between two nodes along the static
// route. Its instantaneous rate is assigned by global max-min fairness
// across all active flows.
type Flow struct {
	net       *Network
	id        int
	src, dst  int
	class     Class
	remaining float64 // bits left to transfer
	rate      float64 // current bits/second
	latency   float64 // one-way path latency applied to delivery
	channels  []*channel
	done      func()
	finished  bool
	cancelled bool
}

// Src returns the source node.
func (f *Flow) Src() int { return f.src }

// Dst returns the destination node.
func (f *Flow) Dst() int { return f.dst }

// Class returns the flow's class.
func (f *Flow) Class() Class { return f.class }

// Rate returns the flow's current max-min fair rate in bits/second.
func (f *Flow) Rate() float64 { return f.rate }

// RemainingBits returns the bits left to transfer as of now.
func (f *Flow) RemainingBits() float64 {
	f.net.advanceFlows()
	return f.remaining
}

// Done reports whether the transfer has completed.
func (f *Flow) Done() bool { return f.finished }

// StartFlow begins transferring bytes from src to dst along the static
// route. done, which may be nil, fires when the last byte arrives (transfer
// completion plus one-way path latency). Zero-byte flows complete after the
// path latency alone.
func (n *Network) StartFlow(src, dst int, bytes float64, cls Class, done func()) *Flow {
	if bytes < 0 || math.IsNaN(bytes) || math.IsInf(bytes, 0) {
		panic(fmt.Sprintf("netsim: flow size %v must be non-negative and finite", bytes))
	}
	f := &Flow{
		net: n, id: n.flowSeq, src: src, dst: dst,
		class: cls, remaining: bytes * 8, done: done,
		latency: n.graph.PathLatency(src, dst),
	}
	n.flowSeq++
	if src == dst || f.remaining == 0 {
		// Local delivery, or a pure control message: latency only.
		f.finished = true
		n.engine.After(f.latency, "flow-local", func() {
			if f.done != nil && !f.cancelled {
				f.done()
			}
		})
		return f
	}
	cur := src
	for _, lid := range n.graph.Route(src, dst) {
		link := n.graph.Link(lid)
		dir := 0
		if cur != link.A {
			dir = 1
		}
		ch := n.channelFor(lid, dir)
		ch.flows = append(ch.flows, f)
		f.channels = append(f.channels, ch)
		cur = link.Other(cur)
	}
	n.advanceFlows()
	n.flows = append(n.flows, f)
	n.reallocate()
	return f
}

// Cancel aborts an in-flight flow; its done callback never fires.
func (f *Flow) Cancel() {
	if f.finished || f.cancelled {
		return
	}
	f.cancelled = true
	f.net.advanceFlows()
	f.net.removeFlow(f)
	f.net.reallocate()
}

// removeFlow detaches a flow from the network and its channels.
func (n *Network) removeFlow(f *Flow) {
	for i, other := range n.flows {
		if other == f {
			n.flows = append(n.flows[:i], n.flows[i+1:]...)
			break
		}
	}
	for _, ch := range f.channels {
		ch.removeFlow(f)
	}
}

// advanceFlows accrues transfer progress for all active flows since the
// last advance.
func (n *Network) advanceFlows() {
	now := n.Now()
	dt := now - n.flowStamp
	if dt > 0 {
		for _, f := range n.flows {
			f.remaining -= f.rate * dt
			if f.remaining < bitEps {
				f.remaining = 0
			}
		}
	}
	n.flowStamp = now
}

// reallocate recomputes max-min fair rates for every active flow
// (progressive filling) and reschedules the next completion event.
//
// Progressive filling: repeatedly find the channel whose equal division of
// residual capacity among its unfrozen flows is smallest, freeze those
// flows at that rate, subtract their consumption everywhere, and repeat.
// The result is the unique max-min fair allocation.
func (n *Network) reallocate() {
	now := n.Now()

	type chanState struct {
		ch       *channel
		residual float64
		unfrozen int
	}
	states := make([]chanState, 0, len(n.channels))
	chanIdx := make(map[*channel]int, len(n.channels))
	for _, ch := range n.channels {
		if len(ch.flows) == 0 {
			ch.setRates(now, 0, 0)
			continue
		}
		chanIdx[ch] = len(states)
		states = append(states, chanState{ch: ch, residual: ch.effectiveCapacity(), unfrozen: len(ch.flows)})
	}

	frozen := make(map[*Flow]bool, len(n.flows))
	remaining := len(n.flows)
	for remaining > 0 {
		// Find the binding channel: smallest equal share.
		bestShare := math.Inf(1)
		best := -1
		for i := range states {
			st := &states[i]
			if st.unfrozen == 0 {
				continue
			}
			share := st.residual / float64(st.unfrozen)
			if share < bestShare {
				bestShare = share
				best = i
			}
		}
		if best < 0 {
			// No channel constrains the remaining flows (cannot happen
			// for flows with non-empty routes).
			break
		}
		for _, f := range states[best].ch.flows {
			if frozen[f] {
				continue
			}
			frozen[f] = true
			f.rate = bestShare
			remaining--
			for _, ch := range f.channels {
				st := &states[chanIdx[ch]]
				st.residual -= bestShare
				if st.residual < 0 {
					st.residual = 0
				}
				st.unfrozen--
			}
		}
	}

	// Publish aggregate channel rates for the counters.
	for i := range states {
		var bg, app float64
		for _, f := range states[i].ch.flows {
			if f.class == Background {
				bg += f.rate
			} else {
				app += f.rate
			}
		}
		states[i].ch.setRates(now, bg, app)
	}

	// Reschedule the single global completion event.
	n.engine.Cancel(n.nextCompletion)
	n.nextCompletion = nil
	soonest := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		if t := f.remaining / f.rate; t < soonest {
			soonest = t
		}
	}
	if !math.IsInf(soonest, 1) {
		if soonest < 0 {
			soonest = 0
		}
		n.nextCompletion = n.engine.After(soonest, "flow-done", n.onFlowCompletion)
	}
}

// onFlowCompletion retires every flow that has finished transferring.
func (n *Network) onFlowCompletion() {
	n.advanceFlows()
	var finished []*Flow
	for _, f := range n.flows {
		if f.remaining <= bitEps {
			finished = append(finished, f)
		}
	}
	if len(finished) == 0 && len(n.flows) > 0 {
		// The scheduled completion did not advance the clock far enough
		// for rounding to clear the residue; retire the flow that was due.
		due := n.flows[0]
		for _, f := range n.flows[1:] {
			if f.rate > 0 && f.remaining/f.rate < due.remaining/math.Max(due.rate, 1e-30) {
				due = f
			}
		}
		due.remaining = 0
		finished = append(finished, due)
	}
	for _, f := range finished {
		f.finished = true
		n.removeFlow(f)
	}
	n.reallocate()
	for _, f := range finished {
		f := f
		if f.done != nil {
			if f.latency > 0 {
				n.engine.After(f.latency, "flow-deliver", f.done)
			} else {
				f.done()
			}
		}
	}
}

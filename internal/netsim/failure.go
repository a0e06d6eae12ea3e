package netsim

import "fmt"

// Link failure injection. A failed link carries nothing: flows crossing it
// are allocated zero rate (they stall rather than abort, as transport
// retransmission would keep them alive on a real network), measurement
// sees zero available bandwidth, and node selection routes around the
// failure. RepairLink restores the capacity and stalled flows resume with
// their remaining bytes intact.

// FailLink takes a link out of service. Failing a failed link is a no-op.
func (n *Network) FailLink(link int) {
	n.setLinkFailed(link, true)
}

// RepairLink returns a failed link to service. Repairing a healthy link is
// a no-op.
func (n *Network) RepairLink(link int) {
	n.setLinkFailed(link, false)
}

// LinkFailed reports whether a link is currently out of service.
func (n *Network) LinkFailed(link int) bool {
	if link < 0 || link >= n.graph.NumLinks() {
		panic(fmt.Sprintf("netsim: link %d out of range", link))
	}
	return n.channelFor(link, 0).failed
}

func (n *Network) setLinkFailed(link int, failed bool) {
	if link < 0 || link >= n.graph.NumLinks() {
		panic(fmt.Sprintf("netsim: link %d out of range", link))
	}
	ch0 := n.channelFor(link, 0)
	ch1 := n.channelFor(link, 1)
	if ch0.failed == failed {
		return
	}
	n.advanceFlows()
	ch0.setFailed(n.Now(), failed)
	if ch1 != ch0 {
		ch1.setFailed(n.Now(), failed)
	}
	n.reallocate()
}

// setFailed flips the channel's effective capacity, accruing counters at
// the old rates first.
func (c *channel) setFailed(now float64, failed bool) {
	c.advanceCounters(now)
	c.failed = failed
}

// effectiveCapacity is the capacity max-min fairness allocates from.
func (c *channel) effectiveCapacity() float64 {
	if c.failed {
		return 0
	}
	return c.capacity
}

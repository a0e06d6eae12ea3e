package core

import "nodeselect/internal/topology"

// Doors for the external core_test package, which holds the tests that
// need internal/hierarchy (package core's own tests cannot import it).
var (
	ReferenceSweepSelect = referenceSweepSelect
	ScoreSorted          = scoreSorted
	RandomTreeSnapshot   = randomTreeSnapshot
	NodeName             = nodeName
	Chain                = chain
)

// NewScratchSweep returns Sweep bound to one private scratch instead of the
// pool, so a test decides which requests share a working set.
func NewScratchSweep() func(*topology.Snapshot, Request, Options, bool, *Grouping) (Result, error) {
	return scratchPool.New().(*scratch).sweep
}

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

// NewScratchSweep returns Sweep bound to one private scratch instead of a
// parked one, so a test decides which requests share a working set.
func NewScratchSweep() func(*topology.Snapshot, Request, Options, bool, *Grouping) (Result, error) {
	return newScratch().sweep
}

// ParkedScratches returns how many working sets are parked.
func ParkedScratches() int {
	scratches.Lock()
	defer scratches.Unlock()
	return len(scratches.parked)
}

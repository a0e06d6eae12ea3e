package selectsvc

import (
	"sync"
	"time"

	"nodeselect/internal/hierarchy"
	"nodeselect/internal/remos"
	"nodeselect/internal/topology"
)

// epoch is one poll's measurements as every request reads them: the
// collector's frozen view and, built by the first request that needs it
// and shared by all the others, one snapshot per query mode. Poll publishes
// a new epoch; a request loads the current one once and answers from it
// throughout, without the service lock.
//
// Everything an epoch hands out is read-only. core and hierarchy.Build only
// read a snapshot, the ledger derives residual views on copies, and the
// rebalance controller passes the snapshot to those two — so one build per
// poll and mode serves every select, lease, migration and /snapshot read.
type epoch struct {
	view  *remos.View
	modes [remos.Trend + 1]modeView
}

// modeView is one query mode's share of an epoch.
type modeView struct {
	once sync.Once
	snap *topology.Snapshot
	err  error

	// mu guards the cluster partition of the residual view of snap under
	// ledger version partVersion (-hierarchy only). A lease commit moves
	// the residual view the clusters were signed from, so a new version
	// rebuilds it; a new poll brings a new epoch.
	mu          sync.Mutex
	part        *hierarchy.Partition
	partVersion uint64
}

func newEpoch(v *remos.View) *epoch { return &epoch{view: v} }

// snapshot returns the epoch's snapshot under mode, built on the first call
// for that mode; concurrent first calls wait for the one build.
func (e *epoch) snapshot(mode remos.Mode) (*topology.Snapshot, error) {
	if mode < 0 || int(mode) >= len(e.modes) {
		return e.view.Snapshot(mode, false) // the view's unknown-mode error
	}
	m := &e.modes[mode]
	m.once.Do(func() { m.snap, m.err = e.view.Snapshot(mode, false) })
	return m.snap, m.err
}

// partitionFor returns the cluster partition of residual — the residual
// view of the epoch's mode snapshot at ledger version — building it on
// first use. The build runs under the mode's lock: concurrent first
// requests would otherwise each pay the full partition cost just to race
// on publishing. A partition ranks members and signs bundles by the
// measurements it was built from, so each mode keeps its own.
func (s *Service) partitionFor(e *epoch, mode remos.Mode, version uint64, residual *topology.Snapshot) *hierarchy.Partition {
	m := &e.modes[mode]
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.part != nil && m.partVersion == version {
		return m.part
	}
	start := time.Now()
	p := hierarchy.Build(residual)
	m.part, m.partVersion = p, version
	s.metrics.hierPartitionBuilds.Inc()
	s.metrics.hierPartitionSeconds.Observe(time.Since(start).Seconds())
	s.metrics.hierClusters.Set(float64(p.Clusters()))
	s.metrics.hierCollapsed.Set(float64(p.CollapsedNodes()))
	return p
}

package selectsvc

import (
	"sync"
	"time"

	"nodeselect/internal/hierarchy"
	"nodeselect/internal/remos"
	"nodeselect/internal/topology"
)

// hierCache holds the one cluster partition valid for the current
// (snapshot, ledger) epoch and query mode. Like the plan cache it is keyed
// on planEpoch: a new poll or any lease commit changes the residual
// measurements the partition's cluster signatures were computed from, so
// either invalidates it — and so does another mode, whose snapshot of the
// same epoch ranks members and signs bundles by different measurements.
// Unlike the plan cache there is nothing to keep per request shape — the
// partition depends only on the residual snapshot.
type hierCache struct {
	mu    sync.Mutex
	epoch planEpoch
	mode  remos.Mode
	part  *hierarchy.Partition
	valid bool
}

// partitionFor returns the cluster partition of the residual snapshot mode
// answered in the given epoch, building (and caching) it on first use. The build runs
// under the cache lock: concurrent first requests of an epoch would
// otherwise each pay the full partition cost just to race on publishing.
func (s *Service) partitionFor(epoch planEpoch, mode remos.Mode, residual *topology.Snapshot) *hierarchy.Partition {
	s.hier.mu.Lock()
	defer s.hier.mu.Unlock()
	if s.hier.valid && s.hier.epoch == epoch && s.hier.mode == mode {
		return s.hier.part
	}
	start := time.Now()
	p := hierarchy.Build(residual)
	s.hier.part, s.hier.epoch, s.hier.mode, s.hier.valid = p, epoch, mode, true
	s.metrics.hierPartitionBuilds.Inc()
	s.metrics.hierPartitionSeconds.Observe(time.Since(start).Seconds())
	s.metrics.hierClusters.Set(float64(p.Clusters()))
	s.metrics.hierCollapsed.Set(float64(p.CollapsedNodes()))
	return p
}

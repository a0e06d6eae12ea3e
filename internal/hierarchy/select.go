package hierarchy

import (
	"context"

	"nodeselect/internal/core"
	"nodeselect/internal/randx"
	"nodeselect/internal/reqtrace"
	"nodeselect/internal/topology"
)

// Path reports how a hierarchy-routed request was answered.
type Path string

const (
	// PathQuotient means the sweep ran over the partition's bundles.
	PathQuotient Path = "quotient"
	// PathFallback means the request fell outside the grouped class and
	// core.SelectOpt answered it: for the sweep objectives the same sweep,
	// ungrouped.
	PathFallback Path = "fallback"
)

// Select runs cluster-first selection. When the request lies in the
// grouped class — a bandwidth or balanced sweep, M ≥ 2, no pinned nodes,
// no latency ceiling, no observer or paper-literal ablation, and a
// partition with at least one cluster built over this graph — core's sweep
// runs with the partition's bundles pre-merged; anything else goes to
// core.SelectOpt unchanged. Either way the caller gets exactly what
// core.SelectOpt returns.
//
// The snapshot must carry the same measurements the partition was built
// from (services guarantee this by caching partitions per measurement
// epoch); otherwise the cluster signatures no longer describe the network
// and the equivalence contract is void.
func Select(algo string, s *topology.Snapshot, p *Partition, req core.Request, src *randx.Source, opts core.Options) (core.Result, Path, error) {
	if !quotientApplies(algo, s, p, req, opts) {
		res, err := core.SelectOpt(algo, s, req, src, opts)
		return res, PathFallback, err
	}
	res, err := core.Sweep(s, req, opts, algo == core.AlgoBalanced, p.grouping)
	return res, PathQuotient, err
}

// SelectCtx is Select timed as a "hierarchy.sweep" span on the context's
// trace, recording which path answered.
func SelectCtx(ctx context.Context, algo string, s *topology.Snapshot, p *Partition, req core.Request, src *randx.Source, opts core.Options) (core.Result, Path, error) {
	span := reqtrace.StartChild(ctx, "hierarchy.sweep")
	defer span.End()
	span.SetAttr("algo", algo)
	res, path, err := Select(algo, s, p, req, src, opts)
	span.SetAttr("path", string(path))
	if err != nil {
		span.Fail(err)
	}
	return res, path, err
}

// quotientApplies reports whether a request runs grouped (see DESIGN.md
// §9): only the sweep objectives have an edge-deletion structure to
// pre-merge (compute/random/static do not); the partition must have
// collapsed something over this very graph; and the request must lie in
// the class core.Grouping.Applies admits.
func quotientApplies(algo string, s *topology.Snapshot, p *Partition, req core.Request, opts core.Options) bool {
	if algo != core.AlgoBalanced && algo != core.AlgoBandwidth {
		return false
	}
	return p != nil && len(p.bundles) > 0 && p.grouping.Applies(s, req, opts)
}

package selectsvc

import (
	"nodeselect/internal/lease"
	"nodeselect/internal/metrics"
	"nodeselect/internal/reqtrace"
)

// minresourceBuckets spans the balanced objective's useful range: fine
// steps across [0,1] (fractional availability) plus headroom for
// priority-weighted scores above 1. Bounds are built as i/20 rather than
// accumulated 0.05 steps so the le labels render cleanly ("0.15", not
// "0.15000000000000002").
var minresourceBuckets = func() []float64 {
	out := make([]float64, 0, 23)
	for i := 1; i <= 20; i++ {
		out = append(out, float64(i)/20)
	}
	return append(out, 1.25, 1.5, 2)
}()

// svcMetrics is the service's own metric set (the collector and agent
// client register theirs separately on the same registry).
type svcMetrics struct {
	// selectsvc_requests_total{algo,mode}
	requests *metrics.CounterVec
	// selectsvc_errors_total{class}: bad_request | no_data | infeasible |
	// internal
	errors *metrics.CounterVec
	// selectsvc_select_seconds: wall-clock latency of /select
	latency *metrics.Histogram
	// selectsvc_minresource: balanced objective of each returned placement
	minresource *metrics.Histogram
	// selectsvc_last_minresource: the most recent placement's objective
	lastMinresource *metrics.Gauge
	// selectsvc_decisions_total: audit entries recorded
	decisions *metrics.Counter
	// selectsvc_partial_polls_total: polls that refreshed only part of the
	// agent fleet and served the rest from last-known-good data
	partialPolls *metrics.Counter
	// selectsvc_health_state: 0 ok, 1 degraded, 2 unhealthy
	healthState *metrics.Gauge
	// selectsvc_degraded_selects_total: placements computed while some
	// measurement inputs were last-known-good rather than live
	degradedSelects *metrics.Counter
	// selectsvc_lease_ops_total{op}: ledger transitions — acquire | renew |
	// release | expire (fed by the ledger's event observer, so expiries from
	// the background sweeper are counted too)
	leaseOps *metrics.CounterVec
	// selectsvc_admission_rejects_total{kind}: leased requests turned away
	// at admission, by binding resource kind (node | link)
	admissionRejects *metrics.CounterVec
	// selectsvc_plan_cache_requests_total{result}: how the plan cache
	// served each plain /select — hit | miss | bypass
	planCacheRequests *metrics.CounterVec
	// selectsvc_http_request_seconds{route,status_class}: per-endpoint
	// request latency, observed by the correlation middleware for every
	// route (including the meta-endpoints that are not traced)
	httpLatency *metrics.HistogramVec
	// selectsvc_hierarchy_requests_total{path}: plain selects routed
	// through hierarchical selection, by answering path — quotient
	// (the sweep ran grouped) or fallback (ungrouped)
	hierRequests *metrics.CounterVec
	// selectsvc_hierarchy_partition_builds_total: cluster partitions
	// computed (one per (snapshot, ledger) epoch that served a
	// hierarchical select)
	hierPartitionBuilds *metrics.Counter
	// selectsvc_hierarchy_partition_build_seconds: wall-clock cost of one
	// partition build
	hierPartitionSeconds *metrics.Histogram
	// selectsvc_hierarchy_clusters: logical clusters in the current
	// partition
	hierClusters *metrics.Gauge
	// selectsvc_hierarchy_collapsed_nodes: compute nodes absorbed into
	// clusters in the current partition
	hierCollapsed *metrics.Gauge
}

func newSvcMetrics(reg *metrics.Registry) *svcMetrics {
	return &svcMetrics{
		requests: reg.NewCounterVec("selectsvc_requests_total",
			"Placement requests served, by algorithm and query mode.", "algo", "mode"),
		errors: reg.NewCounterVec("selectsvc_errors_total",
			"Placement requests failed, by error class.", "class"),
		latency: reg.NewHistogram("selectsvc_select_seconds",
			"Wall-clock latency of one placement request.", nil),
		minresource: reg.NewHistogram("selectsvc_minresource",
			"Balanced objective (minresource) of returned placements.", minresourceBuckets),
		lastMinresource: reg.NewGauge("selectsvc_last_minresource",
			"Balanced objective of the most recent placement."),
		decisions: reg.NewCounter("selectsvc_decisions_total",
			"Decisions recorded in the audit ring."),
		partialPolls: reg.NewCounter("selectsvc_partial_polls_total",
			"Polls that refreshed only part of the agent fleet."),
		healthState: reg.NewGauge("selectsvc_health_state",
			"Service health: 0 ok, 1 degraded, 2 unhealthy."),
		degradedSelects: reg.NewCounter("selectsvc_degraded_selects_total",
			"Placements computed from partially stale measurements."),
		leaseOps: reg.NewCounterVec("selectsvc_lease_ops_total",
			"Reservation ledger transitions, by operation.", "op"),
		admissionRejects: reg.NewCounterVec("selectsvc_admission_rejects_total",
			"Leased placements rejected at admission, by binding resource kind.", "kind"),
		planCacheRequests: reg.NewCounterVec("selectsvc_plan_cache_requests_total",
			"Plan cache outcomes for /select requests: hit, miss, or bypass.", "result"),
		httpLatency: reg.NewHistogramVec("selectsvc_http_request_seconds",
			"HTTP request latency, by route and status class.", nil,
			"route", "status_class"),
		hierRequests: reg.NewCounterVec("selectsvc_hierarchy_requests_total",
			"Hierarchical selects served, by answering path (quotient or fallback).", "path"),
		hierPartitionBuilds: reg.NewCounter("selectsvc_hierarchy_partition_builds_total",
			"Cluster partitions built, one per epoch that served a hierarchical select."),
		hierPartitionSeconds: reg.NewHistogram("selectsvc_hierarchy_partition_build_seconds",
			"Wall-clock cost of building one cluster partition.", nil),
		hierClusters: reg.NewGauge("selectsvc_hierarchy_clusters",
			"Logical clusters in the current partition."),
		hierCollapsed: reg.NewGauge("selectsvc_hierarchy_collapsed_nodes",
			"Compute nodes collapsed into clusters in the current partition."),
	}
}

// registerTraceGauges exposes the trace store's retention counters, so an
// operator can see at a glance whether the tail sampler is dropping,
// retaining, or evicting — and how much.
func registerTraceGauges(reg *metrics.Registry, t *reqtrace.Tracer) {
	st := t.Store()
	reg.NewGaugeFunc("selectsvc_traces_completed_total",
		"Traces finished (retained or not) since start.",
		func() float64 { return float64(st.Stats().Completed) })
	reg.NewGaugeFunc("selectsvc_traces_retained",
		"Traces currently retained in the store, across both rings.",
		func() float64 {
			s := st.Stats()
			return float64(s.RetainedImportant + s.RetainedSampled)
		})
	reg.NewGaugeFunc("selectsvc_traces_dropped_total",
		"Healthy fast traces dropped by the tail sampler.",
		func() float64 { return float64(st.Stats().Dropped) })
	reg.NewGaugeFunc("selectsvc_traces_evicted_total",
		"Retained traces later evicted by ring capacity.",
		func() float64 { return float64(st.Stats().Evicted) })
}

// registerPlanCacheGauges exposes the plan cache's internal state. Like the
// lease gauges these are GaugeFuncs sampled at scrape time — the cache owns
// the counters and flush bookkeeping happens under its lock.
func registerPlanCacheGauges(reg *metrics.Registry, c *planCache) {
	reg.NewGaugeFunc("selectsvc_plan_cache_entries",
		"Plans cached for the current (snapshot, ledger) epoch.",
		func() float64 { _, _, _, n := c.counters(); return float64(n) })
	reg.NewGaugeFunc("selectsvc_plan_cache_invalidations_total",
		"Whole-cache flushes caused by a snapshot update or lease commit.",
		func() float64 { _, _, inv, _ := c.counters(); return float64(inv) })
}

// registerLeaseGauges exposes the ledger's live commitment state. These are
// GaugeFuncs — sampled at scrape time — because the ledger already owns the
// state and keeping a parallel counter in sync would just invite drift.
func registerLeaseGauges(reg *metrics.Registry, l *lease.Ledger) {
	reg.NewGaugeFunc("selectsvc_leases_active",
		"Active (unexpired) leases in the reservation ledger.",
		func() float64 { return float64(l.Len()) })
	reg.NewGaugeFunc("selectsvc_lease_max_cpu_committed",
		"Largest committed CPU fraction across nodes (1 = some node fully reserved).",
		func() float64 { cpu, _ := l.MaxCommitted(); return cpu })
	reg.NewGaugeFunc("selectsvc_lease_max_bw_committed",
		"Largest committed bandwidth fraction across links (1 = some link fully reserved).",
		func() float64 { _, bw := l.MaxCommitted(); return bw })
}

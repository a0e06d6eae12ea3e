package remos

import "nodeselect/internal/metrics"

// CollectorMetrics instruments a Collector: how often it polls, how long
// each poll takes in wall time, how fresh the retained sample window is,
// and how queries break down by mode. The paper's framework is only
// trustworthy when the measurement pipeline is demonstrably live — a
// stale window gauge is the first thing to check when a placement looks
// wrong.
type CollectorMetrics struct {
	// Polls counts samples taken (remos_polls_total).
	Polls *metrics.Counter
	// PollSeconds is the wall-clock duration of each Poll
	// (remos_poll_seconds).
	PollSeconds *metrics.Histogram
	// WindowSamples is the number of samples currently retained
	// (remos_window_samples).
	WindowSamples *metrics.Gauge
	// WindowSpanSeconds is the measurement-time span covered by the
	// retained window (remos_window_span_seconds).
	WindowSpanSeconds *metrics.Gauge
	// LastSampleTime is the measurement clock of the newest sample
	// (remos_last_sample_time_seconds).
	LastSampleTime *metrics.Gauge
	// Queries counts snapshot queries by mode (remos_queries_total).
	Queries *metrics.CounterVec
	// QueryErrors counts snapshot queries that failed, dominated by
	// ErrNoData before the window fills (remos_query_errors_total).
	QueryErrors *metrics.Counter
	// DegradedPolls counts polls that served at least one entity from a
	// stale cache (remos_degraded_polls_total); DegradedQueries counts
	// snapshots answered while degraded (remos_degraded_queries_total).
	DegradedPolls   *metrics.Counter
	DegradedQueries *metrics.Counter
	// StaleNodes/DegradedNodes and StaleLinks/DegradedLinks gauge the
	// entity counts of the Health summary (remos_stale_nodes,
	// remos_degraded_nodes, remos_stale_links, remos_degraded_links);
	// FreshFraction is its live fraction (remos_fresh_fraction).
	StaleNodes    *metrics.Gauge
	DegradedNodes *metrics.Gauge
	StaleLinks    *metrics.Gauge
	DegradedLinks *metrics.Gauge
	FreshFraction *metrics.Gauge
}

// NewCollectorMetrics registers the collector metric set on reg.
func NewCollectorMetrics(reg *metrics.Registry) *CollectorMetrics {
	return &CollectorMetrics{
		Polls:             reg.NewCounter("remos_polls_total", "Measurement samples taken."),
		PollSeconds:       reg.NewHistogram("remos_poll_seconds", "Wall-clock duration of one measurement poll.", nil),
		WindowSamples:     reg.NewGauge("remos_window_samples", "Samples retained in the history window."),
		WindowSpanSeconds: reg.NewGauge("remos_window_span_seconds", "Measurement-time span covered by the retained window."),
		LastSampleTime:    reg.NewGauge("remos_last_sample_time_seconds", "Measurement clock of the newest retained sample."),
		Queries:           reg.NewCounterVec("remos_queries_total", "Snapshot queries answered, by mode.", "mode"),
		QueryErrors:       reg.NewCounter("remos_query_errors_total", "Snapshot queries that failed."),
		DegradedPolls:     reg.NewCounter("remos_degraded_polls_total", "Polls serving any entity from stale cache."),
		DegradedQueries:   reg.NewCounter("remos_degraded_queries_total", "Snapshot queries answered while degraded."),
		StaleNodes:        reg.NewGauge("remos_stale_nodes", "Compute nodes beyond the staleness ceiling."),
		DegradedNodes:     reg.NewGauge("remos_degraded_nodes", "Compute nodes served from last-known-good data."),
		StaleLinks:        reg.NewGauge("remos_stale_links", "Links beyond the staleness ceiling."),
		DegradedLinks:     reg.NewGauge("remos_degraded_links", "Links served from last-known-good data."),
		FreshFraction:     reg.NewGauge("remos_fresh_fraction", "Fraction of entities read live at the latest poll."),
	}
}

// SetMetrics attaches a metric set to the collector and the views it
// publishes (nil detaches). The collector is unsynchronized, so call this
// before polling starts, from the same goroutine discipline that drives
// Poll.
func (c *Collector) SetMetrics(m *CollectorMetrics) { c.metrics, c.view.metrics = m, m }

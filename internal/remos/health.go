package remos

import (
	"errors"
	"fmt"
)

// FreshnessReporter is implemented by sources that can fail partially
// (agent.NetSource): after a poll, NodeOK and LinkOK report whether an
// entity's latest reading is live or served from a stale cache. Sources
// without the interface are taken as always fresh.
type FreshnessReporter interface {
	// NodeOK reports whether the node's most recent read succeeded.
	NodeOK(node int) bool
	// LinkOK reports whether the link's most recent counters are live.
	LinkOK(link int) bool
}

// ErrStale is matched (via errors.Is) by the StaleError a query returns
// when every measurement has outlived the configured maximum age — the
// collector no longer has last-known-good data worth answering with.
var ErrStale = errors.New("remos: measurements exceed the configured maximum age")

// StaleError carries the ages behind an ErrStale failure.
type StaleError struct {
	// AgeSeconds is the age of the freshest compute-node measurement.
	AgeSeconds float64
	// MaxAge is the configured ceiling it exceeded.
	MaxAge float64
}

// Error implements error.
func (e *StaleError) Error() string {
	return fmt.Sprintf("remos: freshest measurement is %.1fs old (max %.1fs)", e.AgeSeconds, e.MaxAge)
}

// Is matches ErrStale.
func (e *StaleError) Is(target error) bool { return target == ErrStale }

// Health states, ordered by severity.
const (
	// HealthOK: every entity was read live at the latest poll.
	HealthOK = "ok"
	// HealthDegraded: some entities are served from last-known-good data.
	HealthDegraded = "degraded"
	// HealthStale: no usable data — nothing polled yet, or every compute
	// node has outlived the maximum age.
	HealthStale = "stale"
)

// Health summarizes the freshness of the collector's view: how many
// entities were read live at the latest poll, how many are coasting on
// last-known-good data, and how many have outlived the maximum age.
// Node counts cover compute nodes only (network nodes report no load);
// link counts cover every link.
type Health struct {
	State string `json:"state"`

	FreshNodes    int `json:"fresh_nodes"`
	DegradedNodes int `json:"degraded_nodes"`
	StaleNodes    int `json:"stale_nodes"`

	FreshLinks    int `json:"fresh_links"`
	DegradedLinks int `json:"degraded_links"`
	StaleLinks    int `json:"stale_links"`

	// FreshFraction is the fraction of all counted entities read live at
	// the latest poll (1 when nothing has been polled counts as 0).
	FreshFraction float64 `json:"fresh_fraction"`
	// MaxAgeSeconds is the age of the oldest entity's last good reading.
	MaxAgeSeconds float64 `json:"max_age_seconds"`
}

// Freshness reports per-entity measurement age in seconds: 0 means the
// entity was read live at the latest poll; a never-read entity ages from
// the collector's start. A Freshness returned by a Collector shares its
// arrays with every other caller of the same poll epoch: read-only.
type Freshness struct {
	NodeAge []float64 `json:"node_age"`
	LinkAge []float64 `json:"link_age"`
}

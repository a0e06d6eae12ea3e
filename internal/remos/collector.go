package remos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"nodeselect/internal/reqtrace"
	"nodeselect/internal/sim"
	"nodeselect/internal/topology"
)

// Mode selects how a query aggregates the collector's sample history,
// matching the paper's description of Remos: "a fixed window of history,
// current network conditions, or an estimate of the future availability."
type Mode int

const (
	// Current answers from the most recent polling interval.
	Current Mode = iota
	// Window averages over the whole retained history window.
	Window
	// Forecast exponentially smooths the per-interval measurements and
	// returns the smoothed value as the estimate of near-future
	// conditions.
	Forecast
	// Trend fits a least-squares line to the per-interval measurements
	// across the window and extrapolates one polling period ahead,
	// clamped to physical bounds — a simple trend-following predictor in
	// the spirit of the forecasting work (NWS, host-load prediction) the
	// paper cites as complementary.
	Trend
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Current:
		return "current"
	case Window:
		return "window"
	case Forecast:
		return "forecast"
	case Trend:
		return "trend"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ErrNoData is returned when the collector has not yet gathered enough
// samples to answer a query.
var ErrNoData = errors.New("remos: not enough samples collected")

// CollectorConfig tunes the measurement loop.
type CollectorConfig struct {
	// Period is the polling interval in seconds (default 2, the order of
	// an SNMP poll loop).
	Period float64
	// History is the number of samples retained (default 16, giving a
	// 30-second window at the default period).
	History int
	// ForecastAlpha is the exponential smoothing coefficient applied to
	// per-interval measurements in Forecast mode (default 0.3).
	ForecastAlpha float64
	// MaxStaleAge, when positive, is the maximum age in seconds a
	// last-known-good measurement may be served with. Entities beyond it
	// count as stale in Health, and once every compute node exceeds it,
	// queries fail with a StaleError instead of answering from data that
	// old. Zero disables the ceiling: degraded data is served forever.
	MaxStaleAge float64
}

func (c CollectorConfig) period() float64 {
	if c.Period <= 0 {
		return 2
	}
	return c.Period
}

func (c CollectorConfig) history() int {
	if c.History < 2 {
		return 16
	}
	return c.History
}

func (c CollectorConfig) alpha() float64 {
	if c.ForecastAlpha <= 0 || c.ForecastAlpha > 1 {
		return 0.3
	}
	return c.ForecastAlpha
}

// sample is one poll of the source.
type sample struct {
	time    float64
	loads   []float64 // all classes
	loadsBG []float64 // background only
	bits    []float64 // cumulative, all classes
	bitsBG  []float64 // cumulative, background only
	up      []bool    // operational status per link
}

// Collector polls a Source and answers Remos queries from the history.
//
// A collector over a partially failing source (see FreshnessReporter)
// degrades instead of failing: a node or link whose agent cannot be read
// keeps its last-known-good values in new samples — link counters are
// extrapolated at the last good rate so every query mode keeps producing
// the last-good estimate rather than an optimistic idle link — and the
// entity's age is tracked for Health, Freshness and the MaxStaleAge
// ceiling.
//
// Every poll publishes a View: the sample window as of that poll with the
// Health and Freshness summarizing it, computed once, where their inputs
// change. Queries answer from the latest View.
type Collector struct {
	src     Source
	cfg     CollectorConfig
	graph   *topology.Graph
	samples []sample // ring, oldest first
	polls   int
	metrics *CollectorMetrics // optional, see SetMetrics

	// Freshness bookkeeping: consecutive polls since an entity was last
	// read live (0 = live at the latest poll), and the last live counter
	// rates used to extrapolate a stale link's counters.
	nodeSince  []int
	linkSince  []int
	linkRate   []float64
	linkRateBG []float64
	degraded   bool // latest poll served any entity from stale cache

	// view is the latest poll's measurements. A poll publishes a new View
	// and never writes to the one it replaces.
	view *View
}

// View is the collector's measurements as of one poll: the sample window,
// the per-entity ages and the Health summarizing them. Nothing in it
// changes after the poll that published it — the next poll publishes a new
// View — so any number of goroutines may query one View while the
// collector polls on, and every query of it answers from the same poll.
type View struct {
	graph    *topology.Graph
	cfg      CollectorConfig
	metrics  *CollectorMetrics
	samples  []sample // the window as of the poll, oldest first
	polls    int
	degraded bool
	fresh    Freshness
	health   Health
}

// NewCollector builds a collector over src. Call Poll (or Start, to attach
// it to a simulation engine) to begin gathering samples.
func NewCollector(src Source, cfg CollectorConfig) *Collector {
	g := src.Topology()
	return &Collector{
		src:        src,
		cfg:        cfg,
		graph:      g,
		nodeSince:  make([]int, g.NumNodes()),
		linkSince:  make([]int, g.NumLinks()),
		linkRate:   make([]float64, g.NumLinks()),
		linkRateBG: make([]float64, g.NumLinks()),
		view: &View{
			graph:  g,
			cfg:    cfg,
			fresh:  Freshness{NodeAge: make([]float64, g.NumNodes()), LinkAge: make([]float64, g.NumLinks())},
			health: Health{State: HealthStale},
		},
	}
}

// Graph returns the measured topology.
func (c *Collector) Graph() *topology.Graph { return c.graph }

// Polls returns how many samples have been taken.
func (c *Collector) Polls() int { return c.polls }

// Poll takes one sample from the source now.
func (c *Collector) Poll() { c.PollCtx(context.Background()) }

// PollCtx is Poll with the sample read timed as a "collector.sample" span
// on the context's trace. The span is the per-poll unit the trace view
// surfaces: when one agent answers slowly, the sample span is where the
// wait shows up.
func (c *Collector) PollCtx(ctx context.Context) {
	span := reqtrace.StartChild(ctx, "collector.sample")
	defer span.End()
	var t0 time.Time
	if c.metrics != nil {
		t0 = time.Now()
	}
	nNodes := c.graph.NumNodes()
	nLinks := c.graph.NumLinks()
	s := sample{
		time:    c.src.Now(),
		loads:   make([]float64, nNodes),
		loadsBG: make([]float64, nNodes),
		bits:    make([]float64, nLinks),
		bitsBG:  make([]float64, nLinks),
		up:      make([]bool, nLinks),
	}
	for i := 0; i < nNodes; i++ {
		if c.graph.Node(i).Kind != topology.Compute {
			continue
		}
		s.loads[i] = c.src.NodeLoad(i, false)
		s.loadsBG[i] = c.src.NodeLoad(i, true)
	}
	for l := 0; l < nLinks; l++ {
		s.bits[l] = c.src.LinkBits(l, false)
		s.bitsBG[l] = c.src.LinkBits(l, true)
		s.up[l] = c.src.LinkUp(l)
	}
	c.applyFreshness(&s)
	c.samples = append(c.samples, s)
	if len(c.samples) > c.cfg.history() {
		c.samples = c.samples[1:]
	}
	c.polls++
	fresh := c.freshnessNow()
	c.view = &View{
		graph:    c.graph,
		cfg:      c.cfg,
		metrics:  c.metrics,
		samples:  slices.Clone(c.samples),
		polls:    c.polls,
		degraded: c.degraded,
		fresh:    fresh,
		health:   c.healthOf(fresh),
	}
	if m := c.metrics; m != nil {
		m.Polls.Inc()
		m.PollSeconds.Observe(time.Since(t0).Seconds())
		m.WindowSamples.Set(float64(len(c.samples)))
		m.WindowSpanSeconds.Set(s.time - c.samples[0].time)
		m.LastSampleTime.Set(s.time)
		if c.degraded {
			m.DegradedPolls.Inc()
		}
		h := c.view.health
		m.StaleNodes.Set(float64(h.StaleNodes))
		m.DegradedNodes.Set(float64(h.DegradedNodes))
		m.StaleLinks.Set(float64(h.StaleLinks))
		m.DegradedLinks.Set(float64(h.DegradedLinks))
		m.FreshFraction.Set(h.FreshFraction)
	}
}

// applyFreshness folds the source's per-entity read outcomes into the new
// sample: ages advance for entities that could not be read, and a stale
// link's counters are extrapolated at the last live rate so the sample
// window keeps encoding the last-known-good estimate instead of a frozen
// counter (which every mode would misread as an idle link).
func (c *Collector) applyFreshness(s *sample) {
	fr, _ := c.src.(FreshnessReporter)
	c.degraded = false
	var prev *sample
	if len(c.samples) > 0 {
		prev = &c.samples[len(c.samples)-1]
	}
	for i := 0; i < c.graph.NumNodes(); i++ {
		if c.graph.Node(i).Kind != topology.Compute {
			continue
		}
		if fr == nil || fr.NodeOK(i) {
			c.nodeSince[i] = 0
		} else {
			// The source already served its cached last-good load.
			c.nodeSince[i]++
			c.degraded = true
		}
	}
	for l := 0; l < c.graph.NumLinks(); l++ {
		if fr == nil || fr.LinkOK(l) {
			// Update the last-live rate only across an interval whose both
			// ends were live; a recovery interval spans synthesized
			// counters and would corrupt the estimate.
			if prev != nil && c.linkSince[l] == 0 {
				if dt := s.time - prev.time; dt > 0 {
					c.linkRate[l] = rateOver(prev.bits[l], s.bits[l], dt)
					c.linkRateBG[l] = rateOver(prev.bitsBG[l], s.bitsBG[l], dt)
				}
			}
			c.linkSince[l] = 0
			continue
		}
		c.degraded = true
		if prev != nil {
			dt := s.time - prev.time
			if dt < 0 {
				dt = 0
			}
			s.bits[l] = prev.bits[l] + c.linkRate[l]*dt
			s.bitsBG[l] = prev.bitsBG[l] + c.linkRateBG[l]*dt
			s.up[l] = prev.up[l]
		}
		c.linkSince[l]++
	}
}

// entityAge converts a polls-since-live count to seconds. Poll counts
// rather than measurement clocks age the data even when every agent is
// down and the measurement clock has stopped advancing.
func (c *Collector) entityAge(since int) float64 {
	return float64(since) * c.cfg.period()
}

// Health summarizes the freshness of the collector's view as of the latest
// poll (HealthStale before the first).
func (c *Collector) Health() Health { return c.view.health }

// Freshness reports the per-entity measurement ages as of the latest poll.
// The arrays are shared by every caller of one poll epoch and read-only: a
// later poll publishes new ones, so a reader keeps the epoch it started in.
func (c *Collector) Freshness() Freshness { return c.view.fresh }

// View returns the latest poll's measurements. The collector itself is
// unsynchronized, but a View may be handed to any number of goroutines:
// they keep answering from that poll however many polls follow.
func (c *Collector) View() *View { return c.view }

// freshnessNow builds the age arrays of the current bookkeeping.
func (c *Collector) freshnessNow() Freshness {
	f := Freshness{
		NodeAge: make([]float64, c.graph.NumNodes()),
		LinkAge: make([]float64, c.graph.NumLinks()),
	}
	for i := range f.NodeAge {
		f.NodeAge[i] = c.entityAge(c.nodeSince[i])
	}
	for l := range f.LinkAge {
		f.LinkAge[l] = c.entityAge(c.linkSince[l])
	}
	return f
}

// healthOf summarizes the current bookkeeping, whose ages are f.
func (c *Collector) healthOf(f Freshness) Health {
	var h Health
	max := c.cfg.MaxStaleAge
	// An entity read live at the latest poll counts fresh; one served from
	// last-known-good data is degraded until its age passes the
	// MaxStaleAge ceiling, which demotes it to stale.
	classify := func(since int, age float64) int {
		if age > h.MaxAgeSeconds {
			h.MaxAgeSeconds = age
		}
		switch {
		case max > 0 && age > max:
			return 2
		case since == 0:
			return 0
		default:
			return 1
		}
	}
	for i := 0; i < c.graph.NumNodes(); i++ {
		if c.graph.Node(i).Kind != topology.Compute {
			continue
		}
		switch classify(c.nodeSince[i], f.NodeAge[i]) {
		case 0:
			h.FreshNodes++
		case 1:
			h.DegradedNodes++
		case 2:
			h.StaleNodes++
		}
	}
	for l := 0; l < c.graph.NumLinks(); l++ {
		switch classify(c.linkSince[l], f.LinkAge[l]) {
		case 0:
			h.FreshLinks++
		case 1:
			h.DegradedLinks++
		case 2:
			h.StaleLinks++
		}
	}
	nodes := h.FreshNodes + h.DegradedNodes + h.StaleNodes
	links := h.FreshLinks + h.DegradedLinks + h.StaleLinks
	if total := nodes + links; total > 0 {
		h.FreshFraction = float64(h.FreshNodes+h.FreshLinks) / float64(total)
	}
	switch {
	case nodes > 0 && h.StaleNodes == nodes:
		h.State = HealthStale
	case h.FreshNodes == nodes && h.FreshLinks == links:
		h.State = HealthOK
	default:
		h.State = HealthDegraded
	}
	return h
}

// Start attaches the collector to a simulation engine, polling every
// configured period. It returns a stop function.
func (c *Collector) Start(engine *sim.Engine) (stop func()) {
	p := c.cfg.period()
	return engine.Every(0, p, "remos-poll", func(sim.Time) { c.Poll() })
}

// Snapshot assembles a topology snapshot under the given mode from the
// latest poll (see View.Snapshot).
func (c *Collector) Snapshot(mode Mode, backgroundOnly bool) (*topology.Snapshot, error) {
	return c.view.Snapshot(mode, backgroundOnly)
}

// Polls returns how many samples the collector had taken at this view.
func (v *View) Polls() int { return v.polls }

// Health summarizes the view's freshness (HealthStale before the first
// poll).
func (v *View) Health() Health { return v.health }

// Freshness reports the view's per-entity measurement ages. The arrays are
// shared by every reader of the view: read-only.
func (v *View) Freshness() Freshness { return v.fresh }

// Snapshot assembles a topology snapshot under the given mode. With
// backgroundOnly true, the application's own load and traffic are excluded
// from the answer. Every call builds a fresh snapshot the caller owns.
func (v *View) Snapshot(mode Mode, backgroundOnly bool) (*topology.Snapshot, error) {
	s, err := v.snapshot(mode, backgroundOnly)
	if m := v.metrics; m != nil {
		if err != nil {
			m.QueryErrors.Inc()
		} else {
			m.Queries.With(mode.String()).Inc()
			if v.degraded {
				m.DegradedQueries.Inc()
			}
		}
	}
	return s, err
}

// snapshot is Snapshot without the metrics accounting, so the Trend
// fallback recursion counts as one query.
func (v *View) snapshot(mode Mode, backgroundOnly bool) (*topology.Snapshot, error) {
	if len(v.samples) == 0 {
		return nil, ErrNoData
	}
	// Answer from last-known-good data while any compute node is within
	// the staleness ceiling; beyond it, a typed error beats serving a view
	// of a network that may no longer exist.
	if max := v.cfg.MaxStaleAge; max > 0 {
		minAge := math.Inf(1)
		for i := 0; i < v.graph.NumNodes(); i++ {
			if v.graph.Node(i).Kind != topology.Compute {
				continue
			}
			if age := v.fresh.NodeAge[i]; age < minAge {
				minAge = age
			}
		}
		if minAge > max {
			return nil, &StaleError{AgeSeconds: minAge, MaxAge: max}
		}
	}
	out := topology.NewSnapshot(v.graph)
	last := v.samples[len(v.samples)-1]
	out.Time = last.time

	loadsOf := func(s sample) []float64 {
		if backgroundOnly {
			return s.loadsBG
		}
		return s.loads
	}
	bitsOf := func(s sample) []float64 {
		if backgroundOnly {
			return s.bitsBG
		}
		return s.bits
	}

	switch mode {
	case Current:
		copy(out.LoadAvg, loadsOf(last))
		if len(v.samples) < 2 {
			// One sample: report loads but full link availability — no
			// interval to rate over yet.
			break
		}
		prev := v.samples[len(v.samples)-2]
		dt := last.time - prev.time
		for l := 0; l < v.graph.NumLinks(); l++ {
			used := rateOver(bitsOf(prev)[l], bitsOf(last)[l], dt)
			out.SetAvailBW(l, v.graph.Link(l).Capacity-used)
		}
	case Window:
		first := v.samples[0]
		for i := range out.LoadAvg {
			sum := 0.0
			for _, s := range v.samples {
				sum += loadsOf(s)[i]
			}
			out.LoadAvg[i] = sum / float64(len(v.samples))
		}
		dt := last.time - first.time
		for l := 0; l < v.graph.NumLinks(); l++ {
			used := rateOver(bitsOf(first)[l], bitsOf(last)[l], dt)
			out.SetAvailBW(l, v.graph.Link(l).Capacity-used)
		}
	case Forecast:
		if len(v.samples) < 2 {
			copy(out.LoadAvg, loadsOf(last))
			break
		}
		alpha := v.cfg.alpha()
		// Exponentially smooth per-interval link usage and loads.
		smoothUsed := make([]float64, v.graph.NumLinks())
		smoothLoad := make([]float64, v.graph.NumNodes())
		copy(smoothLoad, loadsOf(v.samples[0]))
		for i := 1; i < len(v.samples); i++ {
			prev, cur := v.samples[i-1], v.samples[i]
			dt := cur.time - prev.time
			for l := range smoothUsed {
				used := rateOver(bitsOf(prev)[l], bitsOf(cur)[l], dt)
				if i == 1 {
					smoothUsed[l] = used
				} else {
					smoothUsed[l] = alpha*used + (1-alpha)*smoothUsed[l]
				}
			}
			for nd := range smoothLoad {
				smoothLoad[nd] = alpha*loadsOf(cur)[nd] + (1-alpha)*smoothLoad[nd]
			}
		}
		copy(out.LoadAvg, smoothLoad)
		for l := 0; l < v.graph.NumLinks(); l++ {
			out.SetAvailBW(l, v.graph.Link(l).Capacity-smoothUsed[l])
		}
	case Trend:
		if len(v.samples) < 3 {
			// Too little history to fit a slope; fall back to Current.
			return v.snapshot(Current, backgroundOnly)
		}
		// Per-interval used bandwidth and per-sample loads, with their
		// midpoint (resp. sample) times, fitted and extrapolated one
		// period past the last sample.
		horizon := last.time + v.cfg.period()
		nLinks := v.graph.NumLinks()
		times := make([]float64, 0, len(v.samples)-1)
		used := make([][]float64, nLinks)
		for l := range used {
			used[l] = make([]float64, 0, len(v.samples)-1)
		}
		for i := 1; i < len(v.samples); i++ {
			prev, cur := v.samples[i-1], v.samples[i]
			dt := cur.time - prev.time
			times = append(times, (prev.time+cur.time)/2)
			for l := 0; l < nLinks; l++ {
				used[l] = append(used[l], rateOver(bitsOf(prev)[l], bitsOf(cur)[l], dt))
			}
		}
		for l := 0; l < nLinks; l++ {
			pred := extrapolate(times, used[l], horizon)
			out.SetAvailBW(l, v.graph.Link(l).Capacity-pred)
		}
		sampleTimes := make([]float64, len(v.samples))
		series := make([]float64, len(v.samples))
		for nd := range out.LoadAvg {
			for i, s := range v.samples {
				sampleTimes[i] = s.time
				series[i] = loadsOf(s)[nd]
			}
			out.LoadAvg[nd] = extrapolate(sampleTimes, series, horizon)
		}
	default:
		return nil, fmt.Errorf("remos: unknown mode %v", mode)
	}
	// A link reported down at the latest sample offers nothing, whatever
	// its historical counters say (SNMP ifOperStatus semantics).
	for l, up := range last.up {
		if !up {
			out.SetAvailBW(l, 0)
		}
	}
	// Load averages must be non-negative even under measurement noise.
	for i, l := range out.LoadAvg {
		if l < 0 || math.IsNaN(l) {
			out.LoadAvg[i] = 0
		}
	}
	return out, nil
}

// extrapolate fits y = a + b*t by least squares and evaluates at horizon,
// clamped to be non-negative. Degenerate inputs (constant time, short
// series) return the last observation.
func extrapolate(t, y []float64, horizon float64) float64 {
	n := float64(len(t))
	if len(t) != len(y) || len(t) == 0 {
		return 0
	}
	if len(t) < 2 {
		return math.Max(0, y[len(y)-1])
	}
	var st, sy, stt, sty float64
	for i := range t {
		st += t[i]
		sy += y[i]
		stt += t[i] * t[i]
		sty += t[i] * y[i]
	}
	den := n*stt - st*st
	if den == 0 {
		return math.Max(0, y[len(y)-1])
	}
	b := (n*sty - st*sy) / den
	a := (sy - b*st) / n
	return math.Max(0, a+b*horizon)
}

// rateOver converts a counter delta into bits/second, tolerating zero or
// negative intervals and counter resets.
func rateOver(before, after, dt float64) float64 {
	if dt <= 0 {
		return 0
	}
	d := after - before
	if d < 0 {
		return 0
	}
	return d / dt
}

// FlowQuery reports the available bandwidth, in bits/second, that the
// network can offer a new flow between nodes a and b: the bottleneck
// availability along the static route (§2.2 "flow queries").
func (c *Collector) FlowQuery(a, b int, mode Mode, backgroundOnly bool) (float64, error) {
	s, err := c.Snapshot(mode, backgroundOnly)
	if err != nil {
		return 0, err
	}
	return s.PairBandwidth(a, b), nil
}

// NodeQuery reports the fraction of a node's CPU available to a new
// process, cpu = 1/(1+loadavg).
func (c *Collector) NodeQuery(node int, mode Mode, backgroundOnly bool) (float64, error) {
	s, err := c.Snapshot(mode, backgroundOnly)
	if err != nil {
		return 0, err
	}
	return s.CPU(node), nil
}

// Package selectsvc exposes the node selection framework as a long-running
// HTTP service: a background loop polls a Remos measurement source, and
// clients ask for placements with a JSON request — the shape a cluster
// scheduler or launcher would integrate against. It composes the full
// stack of the paper: measurement (internal/remos), the application
// specification interface (internal/appspec), and the selection procedures
// (internal/core).
//
// The service is fully observable: every layer reports into a
// metrics.Registry served at /metrics (Prometheus text format) and
// /debug/vars (JSON), and every placement request is recorded in a
// bounded audit ring served at /decisions — including, for the sweep
// algorithms, the round-by-round edge-deletion trace that explains why
// those nodes were chosen.
package selectsvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nodeselect/internal/admission"
	"nodeselect/internal/appspec"
	"nodeselect/internal/core"
	"nodeselect/internal/hierarchy"
	"nodeselect/internal/lease"
	"nodeselect/internal/metrics"
	"nodeselect/internal/randx"
	"nodeselect/internal/rebalance"
	"nodeselect/internal/remos"
	"nodeselect/internal/remos/agent"
	"nodeselect/internal/reqtrace"
	"nodeselect/internal/topology"
)

// Refresher is implemented by sources that need an explicit round-trip per
// poll (agent.NetSource); sources without it are polled directly.
type Refresher interface {
	Refresh() error
	Invalidate()
}

// Config tunes the service.
type Config struct {
	// Collector configures the measurement loop.
	Collector remos.CollectorConfig
	// DefaultMode is the query mode used when a request names none
	// (default Window).
	DefaultMode remos.Mode
	// Seed seeds the random-baseline stream.
	Seed int64
	// AuditSize bounds the decision audit ring (default 64).
	AuditSize int
	// ExcludeStale drops compute nodes whose measurements have outlived
	// Collector.MaxStaleAge from plain /select candidates: better to
	// place on a node we can see than on one that may be gone. Requires
	// Collector.MaxStaleAge > 0; spec-based requests are not filtered.
	ExcludeStale bool
	// Ledger is the reservation ledger backing admission control and the
	// lease API. Nil creates a private in-memory ledger over the source's
	// topology; pass a WAL-backed one (lease.New with lease.OpenWAL) so
	// active leases survive restarts. The service installs the ledger's
	// event observer for its metrics.
	Ledger *lease.Ledger
	// PlanCacheSize bounds the per-snapshot plan cache: identical plain
	// /select requests within one (snapshot, ledger version) epoch are
	// answered from a memoized plan, with concurrent identical requests
	// computing once (singleflight). Zero means the default (256);
	// negative disables caching entirely. Leased, spec, and random-
	// algorithm requests always bypass the cache.
	PlanCacheSize int
	// Hierarchy routes plain (unleased) sweep selects through the
	// cluster-first quotient path of internal/hierarchy: the residual
	// snapshot is partitioned into logical clusters once per (snapshot,
	// ledger) epoch — cached like the plan cache — and requests inside
	// the class that runs grouped have core's sweep pre-merge each
	// cluster into one vertex, with everything else running the same
	// sweep ungrouped. Results are bit-identical either way; what changes
	// is select latency on 10k+-node topologies. The per-round decision
	// trace is not recorded for hierarchical selects (an installed
	// observer runs ungrouped), so /decisions entries carry the
	// "hierarchy" field instead of a sweep trace.
	Hierarchy bool
	// BatchWindow, when positive, routes leased selects through the
	// epoch-batch admission pipeline: concurrent acquires queue for up to
	// this long (or until BatchMax of them arrive), then commit as one
	// ledger batch — one WAL fsync, one replication round — with
	// serial-equivalent accept/reject outcomes. Zero keeps the one-
	// request-one-fsync serial path.
	BatchWindow time.Duration
	// BatchMax flushes a batch early once it holds this many requests
	// (default 64). Only meaningful with BatchWindow > 0.
	BatchMax int
	// Rebalance, when non-nil, runs the continuous re-placement
	// controller: every poll re-scores active shaped leases against the
	// residual snapshot (excluding each lease's own reservation) and
	// raises migration proposals, served at /migrations. With
	// Policy.Auto they are applied immediately; otherwise they wait for
	// POST /migrations/{lease}/apply.
	Rebalance *rebalance.Policy
	// Trace tunes request tracing (span capture and tail sampling); the
	// zero value traces with the defaults (128 traces per retention
	// class, 250ms slow threshold, 10% sampling of fast healthy
	// requests). Set Trace.Disabled to turn tracing off; X-Request-ID
	// echoing and request_id correlation keep working regardless.
	Trace reqtrace.Config
	// Replica, when non-nil, marks this service as one member of a
	// replicated selectd cluster (usually the *replica.Node whose
	// Replicate the ledger was wired to). Mutating endpoints are then
	// accepted only on the leader — followers answer 307 to the leader's
	// client URL (see PeerClientURLs) or 503 "not_leader" — every
	// response carries X-Replica-Role/Term/Commit-Lag headers, /healthz
	// grows a "replication" block (degraded on lost quorum), and
	// replica_* gauges join the registry.
	Replica ClusterNode
	// PeerClientURLs maps replica IDs to their client-facing base URLs,
	// used to build the Location of write redirects. Without an entry for
	// the current leader, followers answer writes with 503 instead.
	PeerClientURLs map[string]string
}

// defaultPlanCacheSize bounds the plan cache when the config does not.
const defaultPlanCacheSize = 256

// Service is the placement daemon. Create with New, drive polling with
// Poll (or an external ticker calling it), and serve HTTP with Handler.
type Service struct {
	// mu serializes polls and guards the collector and the poll outcome
	// below. The request path never takes it: it reads epoch.
	mu        sync.Mutex
	src       remos.Source
	collector *remos.Collector
	cfg       Config
	rng       *randx.Source
	// selects numbers the /select requests; algo=random seeds its stream
	// with the request's number.
	selects atomic.Int64
	// epoch is the latest poll's measurements, published by Poll.
	epoch atomic.Pointer[epoch]

	// lastPollErr is the most recent Poll failure ("" when the last poll
	// succeeded, possibly partially); partialPolls counts polls that
	// succeeded on a subset of the fleet.
	lastPollErr  string
	partialPolls int

	registry *metrics.Registry
	metrics  *svcMetrics
	audit    *auditRing
	ledger   *lease.Ledger
	admit    *admission.Pipeline // nil when batching is off
	plans    *planCache          // nil when disabled
	rebal    *rebalance.Controller
	tracer   *reqtrace.Tracer
	lastPoll pollSpans

	// replicaRedirects counts writes bounced to the leader (clustered
	// services only; nil otherwise).
	replicaRedirects *metrics.Counter
}

// New builds a service over a measurement source.
func New(src remos.Source, cfg Config) *Service {
	reg := metrics.NewRegistry()
	auditSize := cfg.AuditSize
	if auditSize <= 0 {
		auditSize = 64
	}
	collector := remos.NewCollector(src, cfg.Collector)
	collector.SetMetrics(remos.NewCollectorMetrics(reg))
	if ns, ok := src.(*agent.NetSource); ok {
		ns.SetMetrics(agent.NewClientMetrics(reg))
	}
	ledger := cfg.Ledger
	if ledger == nil {
		// An in-memory ledger cannot fail to construct over a live source's
		// topology.
		ledger, _ = lease.New(src.Topology(), lease.Options{})
	}
	var plans *planCache
	if cfg.PlanCacheSize >= 0 {
		size := cfg.PlanCacheSize
		if size == 0 {
			size = defaultPlanCacheSize
		}
		plans = newPlanCache(size)
	}
	s := &Service{
		src:       src,
		collector: collector,
		cfg:       cfg,
		rng:       randx.New(cfg.Seed).Split("selectd"),
		registry:  reg,
		metrics:   newSvcMetrics(reg),
		audit:     newAuditRing(auditSize),
		ledger:    ledger,
		plans:     plans,
		tracer:    reqtrace.NewTracer(cfg.Trace),
	}
	s.epoch.Store(newEpoch(collector.View()))
	ledger.SetOnEvent(func(op string, _ *lease.Lease) { s.metrics.leaseOps.With(op).Inc() })
	if cfg.BatchWindow > 0 {
		s.admit = admission.New(admission.Config{
			Ledger:   ledger,
			Window:   cfg.BatchWindow,
			MaxBatch: cfg.BatchMax,
			Registry: reg,
		})
	}
	registerLeaseGauges(reg, ledger)
	registerTraceGauges(reg, s.tracer)
	if cfg.Replica != nil {
		registerReplicaGauges(reg, cfg.Replica)
		s.replicaRedirects = reg.NewCounter("replica_write_redirects_total",
			"Mutating requests answered with a 307 redirect to the leader.")
	}
	if plans != nil {
		registerPlanCacheGauges(reg, plans)
	}
	if cfg.Rebalance != nil {
		s.rebal = rebalance.New(ledger, *cfg.Rebalance, reg)
		// Controller actions join the same audit trail as placements, so
		// GET /decisions tells the whole story of where a lease has been.
		s.rebal.SetOnEvent(func(ev rebalance.Event) {
			d := Decision{
				Wall:        time.Now(),
				Kind:        "rebalance_" + ev.Op,
				RequestID:   ev.RequestID,
				LeaseID:     ev.Proposal.Lease,
				Nodes:       ev.Proposal.To,
				FromNodes:   ev.Proposal.From,
				Gain:        ev.Proposal.Gain,
				MinResource: ev.Proposal.CandidateScore,
				Bottleneck:  ev.Proposal.Bottleneck,
			}
			if ev.Err != nil {
				d.Error = ev.Err.Error()
				d.ErrorClass = classifyError(ev.Err)
				var adm *lease.AdmissionError
				if errors.As(ev.Err, &adm) {
					d.Bottleneck = adm.Bottleneck
				}
			}
			s.audit.add(d)
			s.metrics.decisions.Inc()
		})
	}
	return s
}

// Ledger returns the service's reservation ledger, for callers that drive
// sweeping or shutdown themselves (cmd/selectd).
func (s *Service) Ledger() *lease.Ledger { return s.ledger }

// acquireLease is the one admission entry point for leased selects: it
// submits to the epoch-batch pipeline when batching is configured (the
// Decision picks up which batch carried the request), and calls the
// ledger directly otherwise. A nil shape behaves like ledger.Acquire.
func (s *Service) acquireLease(ctx context.Context, snap *topology.Snapshot, demand lease.Demand, ttl time.Duration, shape *lease.Shape, place lease.PlaceFunc, d *Decision) (lease.Info, error) {
	if s.admit == nil {
		return s.ledger.AcquireShaped(ctx, snap, demand, ttl, shape, place)
	}
	info, receipt, err := s.admit.Submit(ctx, admission.Request{
		Snapshot: snap,
		Demand:   demand,
		TTL:      ttl,
		Shape:    shape,
		Place:    place,
		Key:      d.RequestID,
	})
	d.BatchID = receipt.BatchID
	d.BatchSize = receipt.BatchSize
	return info, err
}

// StopBatching flushes and stops the epoch-batch admission pipeline,
// blocking until every queued acquire has committed or failed. Call it
// before closing the ledger on shutdown (like StopRebalance, it must run
// while the ledger's WAL can still fsync); a no-op when batching is off.
func (s *Service) StopBatching() {
	if s.admit != nil {
		s.admit.Close()
	}
}

// cacheBypass labels decisions the plan cache deliberately does not serve
// (leased, spec, or randomized requests): "bypass" while the cache is
// enabled, "" when it is disabled and no cache field applies at all.
func (s *Service) cacheBypass() string {
	if s.plans == nil {
		return ""
	}
	return "bypass"
}

// Registry returns the service's metrics registry, for callers that want
// to add their own instruments alongside.
func (s *Service) Registry() *metrics.Registry { return s.registry }

// Poll takes one measurement sample (refreshing the source if it needs
// it). A partial refresh — some agents unreachable — still polls: the
// collector records the failed entities as stale and the service serves
// last-known-good data, reporting the degradation through Healthz. Only a
// total refresh failure with no prior data aborts the sample. After a
// successful sample the rebalance controller (when configured) runs one
// evaluation epoch.
func (s *Service) Poll() error {
	// Each poll runs under its own trace (kind "poll") so the measurement
	// plane's cost — agent refresh round-trips above all — is visible per
	// cycle. The finished span tree is retained in lastPoll regardless of
	// what the tail sampler keeps, because degraded selects graft it into
	// their own traces to show where the fleet's time went.
	ctx, root := s.tracer.StartTrace(context.Background(), "poll", "collector.poll", "")
	err := s.pollOnce(ctx)
	if err == nil {
		s.rebalanceTick(ctx)
	} else {
		root.Fail(err)
	}
	root.End()
	if tr := root.Trace(); tr != nil {
		s.lastPoll.set(tr.Spans)
	}
	return err
}

// StartPolling runs Poll every interval in a background goroutine until
// the returned stop function is called. Stop blocks until any in-flight
// poll has returned — a poll sweeps the lease ledger, so the guarantee
// callers need on shutdown is "no measurement ingestion after stop", in
// the same spirit as StopRebalance: call stop strictly before flushing
// and closing the ledger, and a sweep can never land on a closed ledger.
// onErr, when non-nil, observes poll failures. Stop is idempotent.
func (s *Service) StartPolling(interval time.Duration, onErr func(error)) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := s.Poll(); err != nil && onErr != nil {
					onErr(err)
				}
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}

func (s *Service) pollOnce(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.src.(Refresher); ok {
		_, span := reqtrace.StartSpan(ctx, "source.refresh")
		err := r.Refresh()
		if err != nil {
			span.Fail(err)
		}
		span.End()
		if err != nil {
			var pe *agent.PartialError
			if !errors.As(err, &pe) {
				s.lastPollErr = err.Error()
				return err
			}
			// Degraded, not dead: sample what we have.
			s.partialPolls++
			s.metrics.partialPolls.Inc()
		}
	}
	s.lastPollErr = ""
	s.collector.PollCtx(ctx)
	s.epoch.Store(newEpoch(s.collector.View()))
	s.metrics.healthState.Set(healthLevel(s.collector.Health().State))
	// Reclaim capacity from crashed clients even when no requests arrive:
	// the poll loop doubles as the lease expiry heartbeat.
	sweep := reqtrace.StartChild(ctx, "lease.sweep")
	s.ledger.Sweep()
	sweep.End()
	return nil
}

// rebalanceTick runs one controller epoch outside s.mu (the controller
// takes the ledger's lock; nesting it inside the service lock would
// invite an ordering hazard with request handlers). The ledger version is
// read before the snapshot for the same conservative reason the plan
// cache does it: a racing commit makes the epoch stale, which only causes
// an extra evaluation next poll.
func (s *Service) rebalanceTick(ctx context.Context) {
	if s.rebal == nil {
		return
	}
	version := s.ledger.Version()
	e := s.epoch.Load()
	snap, err := e.snapshot(s.cfg.DefaultMode)
	if err != nil {
		return // nothing measured yet; next poll retries
	}
	s.rebal.Tick(ctx, snap, rebalance.Epoch{Polls: e.view.Polls(), Ledger: version},
		e.view.Health().State != remos.HealthOK)
}

// StopRebalance stops the re-placement controller, blocking until any
// in-flight evaluation or handover completes — call it before flushing
// and closing the ledger on shutdown, so the reserve-new half of a
// migration can never land after the release-old path is gone. No-op when
// the controller is disabled.
func (s *Service) StopRebalance() {
	if s.rebal != nil {
		s.rebal.Close()
	}
}

// Health states of the service, surfaced in /healthz.
const (
	// StateOK: the latest poll read the whole fleet live.
	StateOK = "ok"
	// StateDegraded: serving, but some measurements are last-known-good.
	StateDegraded = "degraded"
	// StateUnhealthy: nothing worth serving — no samples yet, or every
	// compute node's data has outlived the staleness ceiling.
	StateUnhealthy = "unhealthy"
)

// healthLevel renders a state as the selectsvc_health_state gauge value.
func healthLevel(state string) float64 {
	switch state {
	case StateOK: // == remos.HealthOK
		return 0
	case StateDegraded: // == remos.HealthDegraded
		return 1
	default:
		return 2
	}
}

// Health reports the service state and the collector's freshness summary.
func (s *Service) Health() (string, remos.Health) {
	h := s.epoch.Load().view.Health()
	switch h.State {
	case remos.HealthOK:
		return StateOK, h
	case remos.HealthDegraded:
		return StateDegraded, h
	default:
		return StateUnhealthy, h
	}
}

// Polls reports how many samples have been collected.
func (s *Service) Polls() int { return s.epoch.Load().view.Polls() }

// Decisions returns up to n recent audit entries, newest first (n <= 0
// means all retained).
func (s *Service) Decisions(n int) []Decision { return s.audit.recent(n) }

// SelectRequest is the POST /select body. Either Spec or M must be given.
type SelectRequest struct {
	// M is the node count for a plain request.
	M int `json:"m,omitempty"`
	// Algo names the algorithm (default "balanced").
	Algo string `json:"algo,omitempty"`
	// Mode names the query mode: current, window, forecast, trend
	// (default the service's DefaultMode).
	Mode string `json:"mode,omitempty"`
	// Priority, RefCapacity, MinBW, MinCPU, MinMemoryMB, MaxPairLatency
	// mirror core.Request.
	Priority       float64 `json:"priority,omitempty"`
	RefCapacity    float64 `json:"ref_capacity,omitempty"`
	MinBW          float64 `json:"min_bw,omitempty"`
	MinCPU         float64 `json:"min_cpu,omitempty"`
	MinMemoryMB    float64 `json:"min_memory_mb,omitempty"`
	MaxPairLatency float64 `json:"max_pair_latency,omitempty"`
	// Pin lists node names that must be selected.
	Pin []string `json:"pin,omitempty"`
	// Spec is a full application specification; when present it
	// overrides M and the floors above.
	Spec *appspec.Spec `json:"spec,omitempty"`
	// Demand, when present, makes the request *leased*: the placement is
	// admitted against the residual network view (capacity minus other
	// applications' reservations) and, on success, the demand is debited
	// for the lease's lifetime. Rejections are HTTP 409 with the binding
	// bottleneck named.
	Demand *lease.Demand `json:"demand,omitempty"`
	// LeaseTTL is the lease's time to live in seconds (service default
	// when zero). Setting it without Demand leases a zero demand — the
	// placement is tracked but debits nothing.
	LeaseTTL float64 `json:"lease_ttl,omitempty"`
}

// leased reports whether the request asks for admission control.
func (r SelectRequest) leased() bool { return r.Demand != nil || r.LeaseTTL > 0 }

// SelectResponse is the POST /select reply.
type SelectResponse struct {
	Nodes       []string            `json:"nodes"`
	ByGroup     map[string][]string `json:"by_group,omitempty"`
	MinCPU      float64             `json:"min_cpu"`
	PairMinBW   float64             `json:"pair_min_bw"`
	MinResource float64             `json:"min_resource"`
	MeasuredAt  float64             `json:"measured_at"`
	// Degraded marks a placement computed while part of the measurement
	// fleet was unreadable: some inputs are last-known-good values.
	Degraded bool `json:"degraded,omitempty"`
	// DataAgeSeconds is the age of the oldest measurement that informed
	// the placement (0 when everything was read live).
	DataAgeSeconds float64 `json:"data_age_seconds,omitempty"`
	// StaleNodes names compute nodes whose measurements were stale when
	// the placement was computed (and, with ExcludeStale, were therefore
	// removed from candidacy).
	StaleNodes []string `json:"stale_nodes,omitempty"`
	// Lease is present on leased requests: the reservation that now backs
	// the placement. Renew it before ExpiresAt or the capacity returns to
	// the pool.
	Lease *lease.Info `json:"lease,omitempty"`
}

// Handler returns the service's HTTP handler:
//
//	GET    /topology          — the measured topology document
//	GET    /snapshot          — topology + current snapshot (?mode=window,
//	                            ?view=residual for capacity minus leases)
//	GET    /healthz           — liveness, poll count, decision count
//	GET    /decisions         — recent placement decisions with traces (?n=10)
//	GET    /metrics           — Prometheus text exposition of the registry
//	GET    /debug/vars        — JSON dump of the registry
//	POST   /select            — run a placement (SelectRequest -> SelectResponse);
//	                            with "demand"/"lease_ttl", admit-and-reserve
//	GET    /leases            — active leases and commitment summary
//	POST   /leases/{id}/renew — extend a lease ({"ttl": seconds}, optional body)
//	DELETE /leases/{id}       — release a lease
//	GET    /migrations        — pending migration proposals (rebalance on)
//	POST   /migrations/{id}/apply — execute a proposal's handover
//	GET    /traces            — retained request traces (?kind, ?status,
//	                            ?min_duration=50ms, ?n=20)
//	GET    /traces/{id}       — one trace's full span tree
//
// Every response carries an X-Request-ID header (echoed from the request
// when valid, minted otherwise); every error response is the JSON envelope
// {error, class, status, request_id, bottleneck?}.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /topology", s.handleTopology)
	mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /decisions", s.handleDecisions)
	mux.Handle("GET /metrics", s.registry.Handler())
	mux.Handle("GET /debug/vars", s.registry.JSONHandler())
	mux.HandleFunc("POST /select", s.handleSelect)
	mux.HandleFunc("GET /leases", s.handleLeases)
	mux.HandleFunc("POST /leases/{id}/renew", s.handleLeaseRenew)
	mux.HandleFunc("DELETE /leases/{id}", s.handleLeaseRelease)
	mux.HandleFunc("GET /migrations", s.handleMigrations)
	mux.HandleFunc("POST /migrations/{id}/apply", s.handleMigrationApply)
	mux.HandleFunc("GET /traces", s.handleTraces)
	mux.HandleFunc("GET /traces/{id}", s.handleTraceByID)
	return s.middleware(mux)
}

func (s *Service) handleTopology(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := topology.WriteDocument(w, s.collector.Graph(), nil); err != nil {
		writeError(r.Context(), w, http.StatusInternalServerError, classInternal, "", err)
	}
}

func (s *Service) parseMode(name string) (remos.Mode, error) {
	switch name {
	case "":
		return s.cfg.DefaultMode, nil
	case "current":
		return remos.Current, nil
	case "window":
		return remos.Window, nil
	case "forecast":
		return remos.Forecast, nil
	case "trend":
		return remos.Trend, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", name)
	}
}

// snapshot answers the current epoch's snapshot under the named mode.
func (s *Service) snapshot(modeName string) (*topology.Snapshot, error) {
	mode, err := s.parseMode(modeName)
	if err != nil {
		return nil, err
	}
	return s.epoch.Load().snapshot(mode)
}

func (s *Service) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snap, err := s.snapshot(r.URL.Query().Get("mode"))
	if err != nil {
		class := classifyError(err)
		if class == classInternal {
			class = classBadRequest
		}
		writeError(r.Context(), w, statusFor(class), class, "", err)
		return
	}
	switch view := r.URL.Query().Get("view"); view {
	case "", "raw":
	case "residual":
		snap = s.ledger.Residual(snap)
	default:
		writeError(r.Context(), w, http.StatusBadRequest, classBadRequest, "",
			fmt.Errorf("unknown view %q (want raw or residual)", view))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := topology.WriteDocument(w, snap.Graph, snap); err != nil {
		writeError(r.Context(), w, http.StatusInternalServerError, classInternal, "", err)
	}
}

func (s *Service) handleHealth(w http.ResponseWriter, _ *http.Request) {
	e := s.epoch.Load()
	polls, health := e.view.Polls(), e.view.Health()
	s.mu.Lock()
	partial := s.partialPolls
	pollErr := s.lastPollErr
	s.mu.Unlock()
	state := StateUnhealthy
	switch health.State {
	case remos.HealthOK:
		state = StateOK
	case remos.HealthDegraded:
		state = StateDegraded
	}
	resp := map[string]any{
		"state":         state,
		"polls":         polls,
		"partial_polls": partial,
		"selects":       s.selects.Load(),
		"decisions":     s.audit.size(),
		"measurements":  health,
	}
	if pollErr != "" {
		resp["last_poll_error"] = pollErr
	}
	// Clustered services also report the replication plane. Lost quorum
	// degrades the whole service (writes cannot commit) but keeps it 200:
	// follower reads still serve, annotated with their lag.
	if rep, degraded := s.replicationHealth(); rep != nil {
		resp["replication"] = rep
		if degraded && state == StateOK {
			state = StateDegraded
			resp["state"] = state
		}
	}
	w.Header().Set("Content-Type", "application/json")
	// Degraded still serves placements from last-known-good data, so it
	// stays 200 for load balancers; only unhealthy is a real 503.
	if state == StateUnhealthy {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(resp)
}

func (s *Service) handleDecisions(w http.ResponseWriter, r *http.Request) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeError(r.Context(), w, http.StatusBadRequest, classBadRequest, "",
				fmt.Errorf("bad n %q", q))
			return
		}
		n = v
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.audit.recent(n))
}

// algorithms are the names /select accepts.
var algorithms = core.Algorithms()

func (s *Service) handleSelect(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	ctx := r.Context()
	d := Decision{Wall: t0, RequestID: requestID(ctx)}

	// finish records the decision in the audit ring (success and failure
	// alike) and observes the request latency.
	finish := func() {
		d.DurationSeconds = time.Since(t0).Seconds()
		s.metrics.latency.Observe(d.DurationSeconds)
		if d.Cache != "" {
			s.metrics.planCacheRequests.With(d.Cache).Inc()
		}
		s.audit.add(d)
		s.metrics.decisions.Inc()
	}
	fail := func(class string, err error) {
		// Admission rejections carry the binding bottleneck; surface it in
		// the envelope and the audit trail, and count it by resource kind.
		var adm *lease.AdmissionError
		if errors.As(err, &adm) {
			d.Bottleneck = adm.Bottleneck
			s.metrics.admissionRejects.With(adm.Kind).Inc()
		}
		d.Error = err.Error()
		d.ErrorClass = class
		s.metrics.errors.With(class).Inc()
		finish()
		writeError(r.Context(), w, statusFor(class), class, d.Bottleneck, err)
	}

	var req SelectRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		fail(classBadRequest, fmt.Errorf("bad request: %w", err))
		return
	}
	// Leased selects mutate the ledger, so only the cluster leader takes
	// them; advisory selects are reads and any replica answers. No audit
	// entry for a bounce — the decision happens (and is audited) on the
	// leader.
	if req.leased() && s.replicaWriteGuard(w, r) {
		return
	}
	algo := req.Algo
	if algo == "" {
		algo = core.AlgoBalanced
	}
	d.Algo = algo
	d.M = req.M
	if req.Spec != nil {
		d.Spec = req.Spec.Name
	}
	// The name becomes a metric label and a plan-cache key below; both
	// outlive the request, so only known names get that far.
	if !slices.Contains(algorithms, algo) {
		fail(classBadRequest, fmt.Errorf("%w: unknown algorithm %q", core.ErrBadRequest, algo))
		return
	}
	mode, err := s.parseMode(req.Mode)
	if err != nil {
		d.Mode = req.Mode
		fail(classBadRequest, err)
		return
	}
	d.Mode = mode.String()
	s.metrics.requests.With(algo, d.Mode).Inc()

	leased := req.leased()
	var demand lease.Demand
	if req.Demand != nil {
		demand = *req.Demand
	}
	if leased {
		if err := demand.Validate(); err != nil {
			fail(classBadRequest, err)
			return
		}
	}
	ttl := time.Duration(req.LeaseTTL * float64(time.Second))

	// The ledger version is read before the snapshot (and hence before any
	// residual view derived from it): if a lease commit races with this
	// request, the plan is cached under the pre-commit version and the
	// commit's version bump makes it unservable — a cached plan can never
	// outlive the ledger state it was computed from.
	ledgerVersion := s.ledger.Version()
	snapSpan := reqtrace.StartChild(ctx, "snapshot")
	e := s.epoch.Load()
	snap, err := e.snapshot(mode)
	snapSpan.End()
	if err != nil {
		class := classifyError(err)
		if class == classInternal {
			class = classBadRequest
		}
		fail(class, err)
		return
	}
	d.MeasuredAt = snap.Time
	g := snap.Graph
	health, fresh := e.view.Health(), e.view.Freshness()

	// Staleness annotation: a degraded fleet still answers, but the caller
	// (and the audit trail) should know which inputs were last-known-good.
	degraded := health.State != remos.HealthOK
	maxStale := s.cfg.Collector.MaxStaleAge
	var staleNodes []string
	if degraded && maxStale > 0 {
		for id, age := range fresh.NodeAge[:min(len(fresh.NodeAge), g.NumNodes())] {
			if age > maxStale && g.Node(id).Kind == topology.Compute {
				staleNodes = append(staleNodes, g.Node(id).Name)
			}
		}
		sort.Strings(staleNodes)
	}
	d.Degraded = degraded
	d.DataAgeSeconds = health.MaxAgeSeconds
	if degraded {
		s.metrics.degradedSelects.Inc()
		// A degraded select's latency story lives partly in the measurement
		// plane: graft the latest poll's span tree into this trace so
		// GET /traces/{id} shows where the fleet's time went (typically a
		// slow or timed-out agent under collector.poll).
		reqtrace.Current(ctx).Graft(s.lastPoll.get())
	}

	n := int(s.selects.Add(1) - 1)
	// Only the random baseline reads a stream. Numbering it by the request
	// keeps a seeded service's random placements reproducible without
	// seeding a generator for every other request.
	var src *randx.Source
	if algo == core.AlgoRandom {
		src = s.rng.SplitN(n)
	}

	resp := SelectResponse{MeasuredAt: snap.Time}
	if degraded {
		resp.Degraded = true
		resp.DataAgeSeconds = health.MaxAgeSeconds
		resp.StaleNodes = staleNodes
	}
	// Both branches place via a lease.PlaceFunc: leased requests hand it to
	// Acquire, which admits and reserves inside the ledger's critical
	// section; advisory (unleased) requests call it directly on the residual
	// view, so they too respect capacity already promised to other tenants.
	if req.Spec != nil {
		d.Cache = s.cacheBypass()
		var place appspec.Placement
		placeFn := func(pctx context.Context, residual *topology.Snapshot, _ float64) ([]int, error) {
			// Specs carry their own floors, so the escalated minBW is
			// ignored; admission is still checked on the chosen set.
			_, span := reqtrace.StartSpan(pctx, "core.sweep")
			defer span.End()
			span.SetAttr("algo", algo)
			p, err := appspec.SelectForSpec(residual, req.Spec, algo, src)
			if err != nil {
				span.Fail(err)
				return nil, err
			}
			place = p
			return p.Nodes, nil
		}
		var err error
		if leased {
			var info lease.Info
			info, err = s.acquireLease(ctx, snap, demand, ttl, nil, placeFn, &d)
			if err == nil {
				resp.Lease = &info
				d.LeaseID = info.ID
			}
		} else {
			_, err = placeFn(ctx, s.ledger.Residual(snap), 0)
		}
		if err != nil {
			fail(classifyError(err), err)
			return
		}
		resp.Nodes = nodeNames(g, place.Nodes)
		resp.ByGroup = map[string][]string{}
		for name, ids := range place.ByGroup {
			resp.ByGroup[name] = nodeNames(g, ids)
		}
		resp.MinCPU = place.Score.MinCPU
		resp.PairMinBW = finite(place.Score.PairMinBW)
		resp.MinResource = place.Score.MinResource
		d.M = len(place.Nodes)
	} else {
		base := core.Request{
			M:               req.M,
			ComputePriority: req.Priority,
			RefCapacity:     req.RefCapacity,
			MinBW:           req.MinBW,
			MinCPU:          req.MinCPU,
			MinMemoryMB:     req.MinMemoryMB,
			MaxPairLatency:  req.MaxPairLatency,
		}
		if s.cfg.ExcludeStale && maxStale > 0 {
			ages := fresh.NodeAge
			base.Eligible = func(node int) bool {
				return node >= len(ages) || ages[node] <= maxStale
			}
		}
		for _, name := range req.Pin {
			id := g.NodeByName(name)
			if id < 0 {
				fail(classInfeasible, fmt.Errorf("unknown pinned node %q", name))
				return
			}
			base.Pinned = append(base.Pinned, id)
		}
		// The sweep algorithms report their decision trace; the others
		// have no sweep to trace. Hierarchical plain selects skip the
		// observer — a traced sweep runs ungrouped — and record which
		// path answered instead.
		useHier := s.cfg.Hierarchy && !leased &&
			(algo == core.AlgoBalanced || algo == core.AlgoBandwidth)
		var opts core.Options
		var steps []core.SweepStep
		if (algo == core.AlgoBalanced || algo == core.AlgoBandwidth) && !useHier {
			opts.Observer = func(st core.SweepStep) { steps = append(steps, st) }
		}
		var res core.Result
		placeFn := func(pctx context.Context, residual *topology.Snapshot, minBW float64) ([]int, error) {
			creq := base
			// The demand's floors steer the sweep toward nodes and links
			// with enough uncommitted headroom; minBW rises when Acquire
			// escalates after a flow-multiplicity shortfall.
			if demand.CPU > creq.MinCPU {
				creq.MinCPU = demand.CPU
			}
			if minBW > creq.MinBW {
				creq.MinBW = minBW
			}
			steps = steps[:0]
			r, err := core.SelectCtx(pctx, algo, residual, creq, src, opts)
			if err != nil {
				return nil, err
			}
			res = r
			return r.Nodes, nil
		}
		if leased {
			// Record the originating request shape on the lease (and in the
			// WAL): it is what the rebalance controller re-runs the selection
			// with when deciding whether this placement is still the best one.
			shape := &lease.Shape{
				M:              req.M,
				Algo:           algo,
				Mode:           d.Mode,
				Priority:       req.Priority,
				RefCapacity:    req.RefCapacity,
				MinBW:          req.MinBW,
				MinCPU:         req.MinCPU,
				MinMemoryMB:    req.MinMemoryMB,
				MaxPairLatency: req.MaxPairLatency,
				Pin:            req.Pin,
			}
			info, err := s.acquireLease(ctx, snap, demand, ttl, shape, placeFn, &d)
			if err == nil {
				resp.Lease = &info
				d.LeaseID = info.ID
			}
			d.Trace, d.TraceTruncated = decisionRounds(g, steps)
			d.Cache = s.cacheBypass()
			if err != nil {
				class := classifyError(err)
				if class == classInfeasible {
					// No feasible set on the residual view. Probe the raw
					// snapshot without the demand floors: if a set exists there,
					// the blocker is capacity reserved by other leases — a
					// contention rejection, not an infeasible request — and the
					// probe's bottleneck link is the best available hint.
					if probe, perr := core.SelectOpt(algo, snap, base, src, core.Options{}); perr == nil {
						class = classRejected
						d.Bottleneck = probe.BottleneckName(g)
						err = fmt.Errorf("%w: free capacity is reserved by other leases (bottleneck near %s): %v",
							lease.ErrRejected, d.Bottleneck, err)
					}
				}
				fail(class, err)
				return
			}
		} else {
			pe := planEpoch{polls: e.view.Polls(), ledger: ledgerVersion}
			compute := func(cctx context.Context) cachedPlan {
				var p cachedPlan
				var err error
				if useHier {
					// The partition is built from (and cached for) the
					// residual view: lease debits change link availability,
					// and cluster uniformity must hold in the measurements
					// the sweep actually scores against.
					residual := s.ledger.Residual(snap)
					part := s.partitionFor(e, mode, ledgerVersion, residual)
					creq := base
					if demand.CPU > creq.MinCPU {
						creq.MinCPU = demand.CPU
					}
					var hpath hierarchy.Path
					res, hpath, err = hierarchy.SelectCtx(cctx, algo, residual, part, creq, src, opts)
					p.hier = string(hpath)
				} else {
					_, err = placeFn(cctx, s.ledger.Residual(snap), 0)
				}
				p.res = res
				p.trace, p.truncated = decisionRounds(g, steps)
				if err != nil {
					p.err = err
					p.errClass = classifyError(err)
				}
				return p
			}
			var plan cachedPlan
			if s.plans != nil && algo != core.AlgoRandom {
				entry, owner := s.plans.acquire(pe, planKey(d.Mode, algo, req))
				if owner {
					d.Cache = "miss"
					// The sweep runs under the plan_cache span's context, so
					// core.sweep nests beneath it in the trace; on a hit the
					// span instead times the wait for the owner's result.
					cctx, span := reqtrace.StartSpan(ctx, "plan_cache")
					span.SetAttr("cache", "miss")
					func() {
						// Waiters must be released even if the computation
						// panics, or identical concurrent requests hang.
						published := false
						defer func() {
							if !published {
								entry.publish(cachedPlan{
									err:      fmt.Errorf("plan computation aborted"),
									errClass: classInternal,
								})
							}
						}()
						plan = compute(cctx)
						entry.publish(plan)
						published = true
					}()
					span.End()
				} else {
					d.Cache = "hit"
					span := reqtrace.StartChild(ctx, "plan_cache")
					span.SetAttr("cache", "hit")
					<-entry.ready
					span.End()
					plan = entry.plan
				}
			} else {
				d.Cache = s.cacheBypass()
				plan = compute(ctx)
			}
			d.Trace, d.TraceTruncated = plan.trace, plan.truncated
			if plan.hier != "" {
				d.Hierarchy = plan.hier
				s.metrics.hierRequests.With(plan.hier).Inc()
			}
			if plan.err != nil {
				fail(plan.errClass, plan.err)
				return
			}
			res = plan.res
		}
		resp.Nodes = res.Names(g)
		resp.MinCPU = res.MinCPU
		resp.PairMinBW = finite(res.PairMinBW)
		resp.MinResource = res.MinResource
	}

	d.Nodes = resp.Nodes
	d.MinCPU = resp.MinCPU
	d.PairMinBW = resp.PairMinBW
	d.MinResource = resp.MinResource
	s.metrics.minresource.Observe(resp.MinResource)
	s.metrics.lastMinresource.Set(resp.MinResource)
	finish()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleLeases lists the active leases plus the ledger's commitment
// summary — the operator's view of who holds what.
func (s *Service) handleLeases(w http.ResponseWriter, _ *http.Request) {
	leases := s.ledger.Active()
	if leases == nil {
		leases = []lease.Info{}
	}
	cpu, bw := s.ledger.MaxCommitted()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"leases":            leases,
		"max_cpu_committed": cpu,
		"max_bw_committed":  bw,
	})
}

func (s *Service) handleLeaseRenew(w http.ResponseWriter, r *http.Request) {
	if s.replicaWriteGuard(w, r) {
		return
	}
	var body struct {
		TTL float64 `json:"ttl"` // seconds; 0 = service default
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil && !errors.Is(err, io.EOF) {
		writeError(r.Context(), w, http.StatusBadRequest, classBadRequest, "",
			fmt.Errorf("bad renew body: %w", err))
		return
	}
	info, err := s.ledger.Renew(r.Context(), r.PathValue("id"), time.Duration(body.TTL*float64(time.Second)))
	if err != nil {
		class := classifyError(err)
		writeError(r.Context(), w, statusFor(class), class, "", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(info)
}

// handleMigrations lists the rebalance controller's pending proposals —
// for each, the lease, the from/to node sets, the expected gain, and the
// candidate placement's bottleneck.
func (s *Service) handleMigrations(w http.ResponseWriter, r *http.Request) {
	if s.rebal == nil {
		writeError(r.Context(), w, http.StatusNotFound, classNotFound, "",
			errors.New("rebalance controller is not enabled"))
		return
	}
	props := s.rebal.Proposals()
	if props == nil {
		props = []rebalance.Proposal{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"proposals": props,
		"auto":      s.rebal.Auto(),
	})
}

// handleMigrationApply executes a pending proposal: an atomic
// reserve-new-then-release-old handover through the ledger, re-checked for
// admission at apply time. 409 with the binding bottleneck when the new
// set no longer fits alongside the old; 410 when the lease expired in the
// meantime.
func (s *Service) handleMigrationApply(w http.ResponseWriter, r *http.Request) {
	if s.replicaWriteGuard(w, r) {
		return
	}
	if s.rebal == nil {
		writeError(r.Context(), w, http.StatusNotFound, classNotFound, "",
			errors.New("rebalance controller is not enabled"))
		return
	}
	snap, err := s.epoch.Load().snapshot(s.cfg.DefaultMode)
	if err != nil {
		class := classifyError(err)
		writeError(r.Context(), w, statusFor(class), class, "", err)
		return
	}
	info, err := s.rebal.Apply(r.Context(), snap, r.PathValue("id"))
	if err != nil {
		class := classifyError(err)
		var bottleneck string
		var adm *lease.AdmissionError
		if errors.As(err, &adm) {
			bottleneck = adm.Bottleneck
			s.metrics.admissionRejects.With(adm.Kind).Inc()
		}
		writeError(r.Context(), w, statusFor(class), class, bottleneck, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(info)
}

func (s *Service) handleLeaseRelease(w http.ResponseWriter, r *http.Request) {
	if s.replicaWriteGuard(w, r) {
		return
	}
	id := r.PathValue("id")
	if err := s.ledger.Release(r.Context(), id); err != nil {
		class := classifyError(err)
		writeError(r.Context(), w, statusFor(class), class, "", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"released": id})
}

func nodeNames(g *topology.Graph, ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.Node(id).Name
	}
	sort.Strings(out)
	return out
}

func finite(v float64) float64 {
	if v > 1e300 {
		return 0
	}
	return v
}

package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"nodeselect/internal/lease"
	"nodeselect/internal/remos"
	"nodeselect/internal/replica"
	"nodeselect/internal/selectsvc"
	"nodeselect/internal/testbed"
)

// The HA harness (TestHASchedules, `make ha`) stands up a real 3-replica
// selectd cluster in one process — three full services over the CMU testbed
// topology, each with its own replicated ledger and consensus node, wired
// through an in-memory transport with injectable faults — and drives the
// failure scenarios the replicated ledger exists to survive:
//
//   - kill-leader: crash the leader mid-admission (an append blocked from
//     reaching quorum, then the process killed) and assert that every
//     acknowledged lease survives failover, the unacknowledged one is
//     never half-present, the new leader serves admissions within the
//     failover budget, and its TTL sweeper re-arms (an expiry proposed by
//     the new leader commits cluster-wide).
//   - partition-follower: cut one follower off and assert the majority
//     keeps admitting, the follower keeps serving reads but reports its
//     degradation (no quorum, stale annotation, writes bounced), and the
//     heal converges it to the leader's exact state.
//   - torn-append: delay every append in flight (acks must still wait for
//     quorum), then crash a follower so its replicated log has a torn
//     trailing record, restart it, and assert the torn tail is truncated
//     and the replica rebuilds the exact committed lease state.
//
// Every scenario's invariants reduce to the two that matter: no
// acknowledged lease is ever lost, and no lease is ever double-admitted
// (present with different placements, or debited twice). State equality is
// checked at the ledger level — active lease sets and committed debit
// vectors must match across replicas bit-for-bit.

// HAOptions parameterizes the harness.
type HAOptions struct {
	// Seed fixes the replicas' election jitter and the services' random
	// streams.
	Seed int64
	// ElectionTimeout is the cluster's heartbeat-loss timeout (default
	// 200ms). The failover budget scales with it.
	ElectionTimeout time.Duration
	// Dir is where the replicas keep their logs (default: a temp dir,
	// removed afterwards).
	Dir string
}

func (o HAOptions) withDefaults() HAOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ElectionTimeout <= 0 {
		o.ElectionTimeout = 200 * time.Millisecond
	}
	return o
}

// HACheck is one asserted invariant inside a scenario.
type HACheck struct {
	Name   string
	Detail string
	Pass   bool
}

// HAScenario is one fault schedule's outcome.
type HAScenario struct {
	Name string
	// Acked counts leases whose admission was acknowledged to the client;
	// Lost counts acked leases missing after recovery (must be 0);
	// DoubleAdmissions counts leases present with conflicting state across
	// replicas (must be 0).
	Acked            int
	Lost             int
	DoubleAdmissions int
	FailoverMS       float64
	Checks           []HACheck
	Pass             bool
}

// HAReport is the harness's outcome: every scenario and the verdict.
type HAReport struct {
	FailoverBudgetMS float64
	Scenarios        []HAScenario
	Pass             bool
}

// haMember is one replica "process": its own measurement source, service,
// ledger, and consensus node. Crash-and-restart builds a fresh member over
// the same replica dir, exactly like a restarted daemon.
type haMember struct {
	id      string
	dir     string
	svc     *selectsvc.Service
	handler http.Handler
	ledger  *lease.Ledger
	node    *replica.Node
	logs    *logBuffer
}

// logBuffer captures a member's replica log lines for assertions (torn-
// tail recovery warnings above all).
type logBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (b *logBuffer) logf(format string, args ...any) {
	b.mu.Lock()
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

func (b *logBuffer) contains(sub string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, l := range b.lines {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

// haCluster is the three-member cluster plus its fault-injectable wiring.
type haCluster struct {
	opt     HAOptions
	tr      *replica.MemTransport
	ids     []string
	members map[string]*haMember
}

func newHACluster(opt HAOptions) (*haCluster, error) {
	c := &haCluster{
		opt:     opt,
		tr:      replica.NewMemTransport(),
		ids:     []string{"a", "b", "c"},
		members: make(map[string]*haMember),
	}
	for i, id := range c.ids {
		m, err := c.startMember(id, opt.Seed+int64(i)*104729)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.members[id] = m
	}
	return c, nil
}

// startMember boots one replica process over its (possibly pre-existing)
// log dir and registers it on the transport.
func (c *haCluster) startMember(id string, seed int64) (*haMember, error) {
	g := testbed.CMU()
	src := remos.NewStaticSource(g)
	ledger, err := lease.New(g, lease.Options{
		DefaultTTL: 10 * time.Minute,
		MaxTTL:     time.Hour,
	})
	if err != nil {
		return nil, err
	}
	var peers []string
	for _, p := range c.ids {
		if p != id {
			peers = append(peers, p)
		}
	}
	logs := &logBuffer{}
	node, err := replica.Start(replica.Config{
		ID:              id,
		Peers:           peers,
		Dir:             filepath.Join(c.opt.Dir, id),
		Transport:       c.tr,
		Apply:           ledger.Apply,
		ElectionTimeout: c.opt.ElectionTimeout,
		Heartbeat:       c.opt.ElectionTimeout / 5,
		Seed:            seed,
		Logf:            logs.logf,
	})
	if err != nil {
		return nil, err
	}
	ledger.SetReplicator(node)
	ledger.AdvanceSeq(node.MaxLeaseSeq())
	svc := selectsvc.New(src, selectsvc.Config{
		Collector:   remos.CollectorConfig{History: 8},
		DefaultMode: remos.Current,
		Seed:        seed,
		Ledger:      ledger,
		Replica:     node,
		// Client URLs are opaque to the harness (requests go straight to
		// handlers); any entry makes followers answer 307 rather than 503.
		PeerClientURLs: map[string]string{
			"a": "http://a.cluster:8800",
			"b": "http://b.cluster:8800",
			"c": "http://c.cluster:8800",
		},
	})
	if err := svc.Poll(); err != nil {
		node.Stop()
		return nil, fmt.Errorf("ha: %s initial poll: %w", id, err)
	}
	m := &haMember{
		id: id, dir: filepath.Join(c.opt.Dir, id),
		svc: svc, handler: svc.Handler(), ledger: ledger, node: node, logs: logs,
	}
	c.tr.Register(node)
	return m, nil
}

// crash kills a member like a lost process: RPC endpoint gone, node
// stopped, member forgotten. Its replica dir survives for a restart.
func (c *haCluster) crash(id string) {
	m := c.members[id]
	c.tr.Unregister(id)
	m.node.Stop()
	delete(c.members, id)
}

func (c *haCluster) stop() {
	for id := range c.members {
		c.crash(id)
	}
}

// leader waits for exactly one live member to lead and returns it.
func (c *haCluster) leader(timeout time.Duration) (*haMember, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var leaders []*haMember
		for _, m := range c.members {
			if m.node.IsLeader() {
				leaders = append(leaders, m)
			}
		}
		if len(leaders) == 1 {
			return leaders[0], nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil, fmt.Errorf("ha: no single leader within %v", timeout)
}

// followers returns the live members that are not m.
func (c *haCluster) followers(m *haMember) []*haMember {
	var out []*haMember
	for _, f := range c.members {
		if f != m {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// admit runs one leased admission through a member's HTTP handler and
// returns the acknowledged lease ID.
func (m *haMember) admit(ttlSeconds float64) (string, int, error) {
	body := fmt.Sprintf(`{"m":2,"demand":{"cpu":0.02,"bw":1e6},"lease_ttl":%g}`, ttlSeconds)
	req := httptest.NewRequest("POST", "/select", bytes.NewReader([]byte(body)))
	w := httptest.NewRecorder()
	m.handler.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		return "", w.Code, fmt.Errorf("admission on %s: HTTP %d: %s", m.id, w.Code, w.Body.String())
	}
	var resp selectsvc.SelectResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		return "", w.Code, err
	}
	if resp.Lease == nil {
		return "", w.Code, fmt.Errorf("admission on %s: 200 without a lease", m.id)
	}
	return resp.Lease.ID, w.Code, nil
}

// readLeases is a follower-read: GET /leases through the HTTP surface,
// returning the lease IDs and the replica annotation headers.
func (m *haMember) readLeases() (ids []string, role string, lag string, err error) {
	req := httptest.NewRequest("GET", "/leases", nil)
	w := httptest.NewRecorder()
	m.handler.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		return nil, "", "", fmt.Errorf("GET /leases on %s: HTTP %d", m.id, w.Code)
	}
	var resp struct {
		Leases []lease.Info `json:"leases"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		return nil, "", "", err
	}
	for _, l := range resp.Leases {
		ids = append(ids, l.ID)
	}
	sort.Strings(ids)
	return ids, w.Header().Get("X-Replica-Role"), w.Header().Get("X-Replica-Commit-Lag"), nil
}

// stateFingerprint renders a ledger's replicated state canonically: every
// active lease with its placement, plus the committed debit vectors. Two
// replicas agree iff their fingerprints are equal.
func stateFingerprint(l *lease.Ledger) string {
	infos := l.Active()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	var b strings.Builder
	for _, in := range infos {
		nodes := append([]string(nil), in.Nodes...)
		sort.Strings(nodes)
		fmt.Fprintf(&b, "%s=%v cpu=%.6f bw=%.0f;", in.ID, nodes, in.CPU, in.BW)
	}
	cpu, bw := l.Committed()
	fmt.Fprintf(&b, "|cpu=%.9v|bw=%.9v", cpu, bw)
	return b.String()
}

// converged waits until every live member's fingerprint matches.
func (c *haCluster) converged(timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	var last []string
	for time.Now().Before(deadline) {
		last = last[:0]
		for _, id := range c.ids {
			if m, ok := c.members[id]; ok {
				last = append(last, m.id+": "+stateFingerprint(m.ledger))
			}
		}
		same := true
		for i := 1; i < len(last); i++ {
			if last[i][strings.Index(last[i], ":"):] != last[0][strings.Index(last[0], ":"):] {
				same = false
				break
			}
		}
		if same && len(last) > 0 {
			return last[0], nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return "", fmt.Errorf("ha: replicas did not converge within %v:\n  %s",
		timeout, strings.Join(last, "\n  "))
}

// scenarioState accumulates a scenario's checks.
type scenarioState struct {
	sc HAScenario
}

func (s *scenarioState) check(name string, pass bool, detail string, args ...any) bool {
	s.sc.Checks = append(s.sc.Checks, HACheck{
		Name: name, Detail: fmt.Sprintf(detail, args...), Pass: pass,
	})
	return pass
}

func (s *scenarioState) done() HAScenario {
	s.sc.Pass = s.sc.Lost == 0 && s.sc.DoubleAdmissions == 0
	for _, ch := range s.sc.Checks {
		if !ch.Pass {
			s.sc.Pass = false
		}
	}
	return s.sc
}

// verifySurvival fills Lost/DoubleAdmissions: every acked lease must be
// present on every live replica with identical state (the fingerprint
// equality already proved cross-replica identity; this proves presence).
func (s *scenarioState) verifySurvival(c *haCluster, acked []string, expired map[string]bool) {
	for _, m := range c.members {
		present := make(map[string]int)
		for _, in := range m.ledger.Active() {
			present[in.ID]++
		}
		for id, n := range present {
			if n > 1 {
				s.sc.DoubleAdmissions++
				s.check("no-double-admission", false, "%s holds %s %d times", m.id, id, n)
			}
		}
		for _, id := range acked {
			if expired[id] {
				continue
			}
			if present[id] == 0 {
				s.sc.Lost++
				s.check("no-acked-lease-lost", false, "acked lease %s missing on %s", id, m.id)
			}
		}
	}
	if s.sc.Lost == 0 {
		s.check("no-acked-lease-lost", true, "%d acked leases present on every replica", len(acked)-len(expired))
	}
	if s.sc.DoubleAdmissions == 0 {
		s.check("no-double-admission", true, "every lease held exactly once per replica")
	}
}

// RunHA executes the fault schedules and returns the report.
func RunHA(opt HAOptions) (HAReport, error) {
	opt = opt.withDefaults()
	if opt.Dir == "" {
		dir, err := os.MkdirTemp("", "nodeselect-ha-*")
		if err != nil {
			return HAReport{}, err
		}
		defer os.RemoveAll(dir)
		opt.Dir = dir
	}
	budget := 5 * opt.ElectionTimeout
	report := HAReport{
		FailoverBudgetMS: float64(budget) / float64(time.Millisecond),
		Pass:             true,
	}
	scenarios := []func(HAOptions, time.Duration) (HAScenario, error){
		runHAKillLeader,
		runHAPartitionFollower,
		runHATornAppend,
	}
	for _, fn := range scenarios {
		sc, err := fn(opt, budget)
		if err != nil {
			return report, err
		}
		report.Scenarios = append(report.Scenarios, sc)
		if !sc.Pass {
			report.Pass = false
		}
	}
	return report, nil
}

// runHAKillLeader crashes the leader mid-admission and verifies failover.
func runHAKillLeader(opt HAOptions, budget time.Duration) (HAScenario, error) {
	opt.Dir = filepath.Join(opt.Dir, "kill-leader")
	c, err := newHACluster(opt)
	if err != nil {
		return HAScenario{}, err
	}
	defer c.stop()
	st := &scenarioState{sc: HAScenario{Name: "kill-leader"}}

	ld, err := c.leader(10 * opt.ElectionTimeout)
	if err != nil {
		return HAScenario{}, err
	}
	var acked []string
	for i := 0; i < 3; i++ {
		id, _, err := ld.admit(600)
		if err != nil {
			return HAScenario{}, err
		}
		acked = append(acked, id)
	}
	st.sc.Acked = len(acked)
	if _, err := c.converged(5 * time.Second); err != nil {
		return HAScenario{}, err
	}

	// Mid-admission fault: block every entry-carrying append so the next
	// admission can fsync locally but never reach quorum, then crash the
	// leader with the proposal dangling.
	c.tr.SetIntercept(func(from, to string, req any) error {
		if ar, ok := req.(replica.AppendRequest); ok && len(ar.Entries) > 0 {
			return fmt.Errorf("ha: append blackholed")
		}
		return nil
	})
	unackedDone := make(chan error, 1)
	go func() {
		_, _, err := ld.admit(600)
		unackedDone <- err
	}()
	// Give the proposal time to append locally and stall on quorum.
	time.Sleep(4 * opt.ElectionTimeout / 10)
	killedAt := time.Now()
	oldID := ld.id
	c.crash(oldID)
	c.tr.SetIntercept(nil)
	inflightErr := <-unackedDone
	st.check("mid-admission-not-acked", inflightErr != nil,
		"admission in flight during the crash was not acknowledged (err=%v)", inflightErr)

	// Failover: a survivor must take over and serve an admission within
	// the budget.
	var newLd *haMember
	var failoverID string
	for time.Now().Sub(killedAt) < budget {
		for _, m := range c.members {
			if m.node.IsLeader() {
				newLd = m
			}
		}
		if newLd != nil {
			if id, _, err := newLd.admit(600); err == nil {
				failoverID = id
				break
			}
			newLd = nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	st.sc.FailoverMS = float64(time.Since(killedAt)) / float64(time.Millisecond)
	if !st.check("failover-within-budget", failoverID != "",
		"new leader served an admission %.0fms after the crash (budget %.0fms)",
		st.sc.FailoverMS, float64(budget)/float64(time.Millisecond)) {
		return st.done(), nil
	}
	acked = append(acked, failoverID)
	st.sc.Acked++

	if _, err := c.converged(5 * time.Second); err != nil {
		st.check("replicas-converge", false, "%v", err)
		return st.done(), nil
	}
	st.check("replicas-converge", true, "surviving replicas agree on leases and debits")

	// The new leader's TTL sweeper must reclaim expired leases cluster-
	// wide: a short lease admitted after failover is proposed for expiry
	// by whichever survivor sweeps (only the leader's proposal commits).
	shortID, _, err := newLd.admit(0.3)
	if err != nil {
		return HAScenario{}, err
	}
	acked = append(acked, shortID)
	st.sc.Acked++
	expired := map[string]bool{shortID: true}
	var stops []func()
	for _, m := range c.members {
		stops = append(stops, m.ledger.StartSweeper(50*time.Millisecond))
	}
	gone := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		gone = true
		for _, m := range c.members {
			if _, ok := m.ledger.Get(shortID); ok {
				gone = false
			}
		}
		if gone {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, stop := range stops {
		stop()
	}
	st.check("sweeper-rearmed-after-failover", gone,
		"short-TTL lease %s expired on every survivor via the new leader's sweep", shortID)

	if _, err := c.converged(5 * time.Second); err != nil {
		st.check("replicas-converge-final", false, "%v", err)
		return st.done(), nil
	}
	st.verifySurvival(c, acked, expired)
	return st.done(), nil
}

// runHAPartitionFollower cuts a follower off and verifies degraded reads
// plus post-heal convergence.
func runHAPartitionFollower(opt HAOptions, budget time.Duration) (HAScenario, error) {
	opt.Dir = filepath.Join(opt.Dir, "partition-follower")
	c, err := newHACluster(opt)
	if err != nil {
		return HAScenario{}, err
	}
	defer c.stop()
	st := &scenarioState{sc: HAScenario{Name: "partition-follower"}}

	ld, err := c.leader(10 * opt.ElectionTimeout)
	if err != nil {
		return HAScenario{}, err
	}
	var acked []string
	for i := 0; i < 2; i++ {
		id, _, err := ld.admit(600)
		if err != nil {
			return HAScenario{}, err
		}
		acked = append(acked, id)
	}
	if _, err := c.converged(5 * time.Second); err != nil {
		return HAScenario{}, err
	}
	follower := c.followers(ld)[0]
	c.tr.Isolate(follower.id)

	// The majority must keep admitting with one follower dark.
	for i := 0; i < 2; i++ {
		id, _, err := ld.admit(600)
		if err != nil {
			st.check("majority-keeps-admitting", false, "%v", err)
			return st.done(), nil
		}
		acked = append(acked, id)
	}
	st.sc.Acked = len(acked)
	st.check("majority-keeps-admitting", true, "2 admissions acknowledged during the partition")

	// The partitioned follower keeps serving reads — visibly stale: its
	// lease list predates the partition and its health reports lost
	// quorum once the leader's silence outlives the freshness window.
	ids, role, _, err := follower.readLeases()
	if err != nil {
		return HAScenario{}, err
	}
	st.check("follower-serves-stale-reads", len(ids) == 2,
		"partitioned follower (role %s) still serves GET /leases with the %d pre-partition leases", role, len(ids))
	degraded := false
	for deadline := time.Now().Add(10 * opt.ElectionTimeout); time.Now().Before(deadline); {
		if !follower.node.Status().HasQuorum {
			degraded = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	st.check("follower-reports-degraded", degraded,
		"partitioned follower reports lost quorum (healthz replication block degrades)")

	// Writes on the cut-off replica must bounce, never commit locally.
	_, code, err := follower.admit(600)
	st.check("follower-bounces-writes", err != nil && code != http.StatusOK,
		"admission on the partitioned replica answered HTTP %d, not a local commit", code)

	// Heal: the follower catches up to the exact post-partition state and
	// its lag annotation returns to zero.
	c.tr.HealAll()
	if _, err := c.converged(5 * time.Second); err != nil {
		st.check("follower-converges-after-heal", false, "%v", err)
		return st.done(), nil
	}
	var lag string
	caughtUp := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		var idsNow []string
		idsNow, _, lag, err = follower.readLeases()
		if err != nil {
			return HAScenario{}, err
		}
		if len(idsNow) == len(acked) && lag == "0" {
			caughtUp = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	st.check("follower-converges-after-heal", caughtUp,
		"healed follower serves all %d leases with X-Replica-Commit-Lag %s", len(acked), lag)
	st.verifySurvival(c, acked, nil)
	return st.done(), nil
}

// runHATornAppend delays appends in flight, then crashes a follower so
// its log has a torn trailing record and verifies crash recovery.
func runHATornAppend(opt HAOptions, budget time.Duration) (HAScenario, error) {
	opt.Dir = filepath.Join(opt.Dir, "torn-append")
	c, err := newHACluster(opt)
	if err != nil {
		return HAScenario{}, err
	}
	defer c.stop()
	st := &scenarioState{sc: HAScenario{Name: "torn-append"}}

	ld, err := c.leader(10 * opt.ElectionTimeout)
	if err != nil {
		return HAScenario{}, err
	}
	var acked []string
	for i := 0; i < 2; i++ {
		id, _, err := ld.admit(600)
		if err != nil {
			return HAScenario{}, err
		}
		acked = append(acked, id)
	}

	// Delayed appends: every message now takes a beat. Admissions must
	// still block on the (slow) quorum rather than ack early.
	c.tr.SetDelay(opt.ElectionTimeout / 8)
	t0 := time.Now()
	id, _, err := ld.admit(600)
	if err != nil {
		return HAScenario{}, err
	}
	acked = append(acked, id)
	st.sc.Acked = len(acked)
	st.check("ack-waits-for-slow-quorum", time.Since(t0) >= opt.ElectionTimeout/8,
		"admission under %.0fms append delay acknowledged after %.1fms — after the delayed quorum, not before",
		float64(opt.ElectionTimeout/8)/float64(time.Millisecond),
		float64(time.Since(t0))/float64(time.Millisecond))
	c.tr.SetDelay(0)
	if _, err := c.converged(5 * time.Second); err != nil {
		return HAScenario{}, err
	}

	// Crash a follower and tear its log: append half a record, the way a
	// crash mid-write leaves a real file.
	victim := c.followers(ld)[0]
	victimID := victim.id
	c.crash(victimID)
	logPath := filepath.Join(victim.dir, "replica.log.jsonl")
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return HAScenario{}, err
	}
	if _, err := f.WriteString(`{"op":"acquire","id":"lease-torn","nodes":["m-1"`); err != nil {
		f.Close()
		return HAScenario{}, err
	}
	f.Close()

	// Restart the victim as a fresh process over the torn log.
	m, err := c.startMember(victimID, opt.Seed+7)
	if err != nil {
		st.check("torn-log-recovers", false, "restart over torn log failed: %v", err)
		return st.done(), nil
	}
	c.members[victimID] = m
	st.check("torn-log-recovers", m.logs.contains("torn"),
		"restarted replica truncated the torn trailing record and recovered")

	if _, err := c.converged(5 * time.Second); err != nil {
		st.check("replica-rebuilds-state", false, "%v", err)
		return st.done(), nil
	}
	infos := m.ledger.Active()
	st.check("replica-rebuilds-state", len(infos) == len(acked),
		"restarted replica replayed the committed log into %d/%d leases", len(infos), len(acked))
	st.verifySurvival(c, acked, nil)
	return st.done(), nil
}

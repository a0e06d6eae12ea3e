package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"nodeselect/internal/gossip"
	"nodeselect/internal/measure"
	"nodeselect/internal/randx"
)

// GossipOptions parameterizes the gossip convergence experiment: an
// in-process mesh of publishing agents on the synchronous MemNetwork
// transport, driven round by round on a manual clock — fully
// deterministic under one seed, fast enough to run under -race in CI.
type GossipOptions struct {
	// Seed drives peer selection, the fault stream and the churn
	// schedule.
	Seed int64
	// Sizes are the fleet sizes to measure (default 50, 100, 200, 500).
	Sizes []int
	// Trials is the number of propagation waves measured per size
	// (default 5). Each wave publishes one fresh observation and records
	// the round at which every live node first holds it, so a size
	// contributes ~Trials×Agents propagation samples to the CDF.
	Trials int
	// ChurnFraction is the fraction of nodes killed before each wave and
	// revived after it (default 0.05): propagation is measured under
	// membership churn, not on a quiet mesh.
	ChurnFraction float64
	// P99Budget is the acceptance bound, in gossip rounds, on the p99 of
	// propagation time (default 5).
	P99Budget float64
	// StalenessBound is the age bound, in seconds, no live entry may
	// exceed while its origin and the observing node stay live (default
	// gossip.DefaultFreshFor). One gossip round advances the clock 1s.
	StalenessBound float64
}

func (o GossipOptions) withDefaults() GossipOptions {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{50, 100, 200, 500}
	}
	if o.Trials <= 0 {
		o.Trials = 5
	}
	if o.ChurnFraction <= 0 || o.ChurnFraction >= 0.5 {
		o.ChurnFraction = 0.05
	}
	if o.P99Budget <= 0 {
		o.P99Budget = 5
	}
	if o.StalenessBound <= 0 {
		o.StalenessBound = gossip.DefaultFreshFor
	}
	return o
}

// GossipSizeResult is one fleet size's measurements.
type GossipSizeResult struct {
	Agents int

	// Propagation-time distribution in gossip rounds: the round at which
	// a live node first held a freshly published observation, across all
	// waves and receivers.
	Samples int
	P50     float64
	P90     float64
	P99     float64
	Max     float64

	// Partition/heal: rounds from heal to full digest convergence.
	HealRounds int
	Converged  bool

	// Staleness: the worst live-entry age observed on always-live nodes
	// during the steady-state publishing phase, against the bound.
	MaxEntryAgeSeconds float64
	StalenessBound     float64
	StalenessOK        bool

	PropagationOK bool
}

// GossipReport is the full convergence report.
type GossipReport struct {
	Seed      int64
	P99Budget float64
	Sizes     []GossipSizeResult
	// Pass is the acceptance verdict: every size propagated within the
	// p99 budget, converged after a healed partition, and kept live
	// entries inside the staleness bound.
	Pass bool
}

// gossipFleet is one in-process mesh under test.
type gossipFleet struct {
	n     int
	clk   *measure.Manual
	net   *gossip.MemNetwork
	nodes []*gossip.Node
	names []string
	seq   float64 // measurement-clock feed for publishes
}

func newGossipFleet(n int, seed int64) *gossipFleet {
	f := &gossipFleet{
		n:     n,
		clk:   measure.NewManual(time.Unix(10_000, 0)),
		net:   gossip.NewMemNetwork(seed),
		names: make([]string, n),
		nodes: make([]*gossip.Node, n),
	}
	for i := range f.names {
		f.names[i] = fmt.Sprintf("n%d", i)
	}
	for i := range f.nodes {
		peers := make([]string, 0, n-1)
		for j, p := range f.names {
			if j != i {
				peers = append(peers, p)
			}
		}
		f.nodes[i] = gossip.New(gossip.Config{
			Name:      f.names[i],
			Origin:    i,
			Peers:     peers,
			Transport: f.net.TransportFor(f.names[i]),
			Clock:     f.clk,
			Seed:      seed,
		})
		f.net.Join(f.nodes[i])
	}
	return f
}

// tick runs one gossip round on every live node and advances the shared
// clock one second.
func (f *gossipFleet) tick() {
	for i, nd := range f.nodes {
		if !f.net.Down(f.names[i]) {
			nd.Tick()
		}
	}
	f.clk.Advance(time.Second)
}

// publish emits a fresh observation from node i.
func (f *gossipFleet) publish(i int) gossip.Observation {
	f.seq++
	return f.nodes[i].Publish(f.seq, f.seq, f.seq/2, map[int]gossip.LinkReading{i: {Bits: f.seq * 1e6}})
}

// RunGossip measures the gossip plane's dissemination behavior across
// fleet sizes: propagation-time CDFs under churn, reconvergence after a
// healed partition, and the staleness bound live entries stay inside.
func RunGossip(opts GossipOptions) (GossipReport, error) {
	opts = opts.withDefaults()
	rep := GossipReport{Seed: opts.Seed, P99Budget: opts.P99Budget, Pass: true}
	rng := randx.New(opts.Seed).Split("gossip/experiment")
	for _, n := range opts.Sizes {
		if n < 2 {
			return rep, fmt.Errorf("experiment: gossip fleet size %d too small", n)
		}
		res := runGossipSize(n, opts, rng.Split(fmt.Sprintf("size/%d", n)))
		rep.Sizes = append(rep.Sizes, res)
		if !res.PropagationOK || !res.Converged || !res.StalenessOK {
			rep.Pass = false
		}
	}
	return rep, nil
}

func runGossipSize(n int, opts GossipOptions, rng *randx.Source) GossipSizeResult {
	res := GossipSizeResult{Agents: n, StalenessBound: opts.StalenessBound}
	f := newGossipFleet(n, opts.Seed)

	// Warm the mesh: everyone publishes once and the fleet runs a few
	// rounds, so stores and membership start from steady state.
	for i := 0; i < n; i++ {
		f.publish(i)
	}
	for r := 0; r < 8; r++ {
		f.tick()
	}

	// --- Propagation waves under churn -------------------------------
	var samples []int
	churn := int(float64(n) * opts.ChurnFraction)
	for trial := 0; trial < opts.Trials; trial++ {
		// Kill a fresh random subset for the duration of the wave.
		killed := map[int]bool{}
		for _, i := range rng.Perm(n)[:churn] {
			killed[i] = true
			f.net.Kill(f.names[i])
		}
		origin := rng.Intn(n)
		for killed[origin] {
			origin = rng.Intn(n)
		}
		obs := f.publish(origin)
		got := map[int]bool{origin: true}
		const maxRounds = 30
		for round := 1; round <= maxRounds && len(got) < n-len(killed); round++ {
			f.tick()
			for i := range f.nodes {
				if got[i] || killed[i] {
					continue
				}
				if cur, ok := f.nodes[i].Store().Get(origin); ok && cur.Stamp == obs.Stamp {
					got[i] = true
					samples = append(samples, round)
				}
			}
		}
		// Receivers that never saw the wave count at the cap, so a
		// non-converging mesh fails the budget instead of hiding.
		for i := 0; i < n; i++ {
			if !got[i] && !killed[i] {
				samples = append(samples, maxRounds)
			}
		}
		for i := range killed {
			f.net.Revive(f.names[i])
		}
		// A few quiet rounds so revived nodes reconcile before the next wave.
		for r := 0; r < 2*gossip.DefaultAntiEntropyEvery; r++ {
			f.tick()
		}
	}
	res.Samples = len(samples)
	sort.Ints(samples)
	q := func(p float64) float64 {
		if len(samples) == 0 {
			return 0
		}
		i := int(p * float64(len(samples)-1))
		return float64(samples[i])
	}
	res.P50, res.P90, res.P99 = q(0.50), q(0.90), q(0.99)
	res.Max = float64(samples[len(samples)-1])
	res.PropagationOK = res.P99 <= opts.P99Budget

	// --- Partition / heal --------------------------------------------
	groups := make(map[string]int, n)
	for i, name := range f.names {
		groups[name] = i % 2
	}
	f.net.SetPartition(groups)
	// Both sides publish while separated.
	for i := 0; i < n; i++ {
		f.publish(i)
	}
	for r := 0; r < 8; r++ {
		f.tick()
	}
	f.net.Heal()
	healCap := 40 * gossip.DefaultAntiEntropyEvery
	res.HealRounds = healCap
	for r := 1; r <= healCap; r++ {
		f.tick()
		if meshConverged(f) {
			res.HealRounds = r
			res.Converged = true
			break
		}
	}

	// --- Staleness bound in steady state ------------------------------
	// Everyone republishes every 2 rounds (2 seconds); churn kills a
	// subset mid-phase and revives it. The worst age of a live origin's
	// entry on an always-live node must stay inside the bound.
	alwaysLive := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		alwaysLive[i] = true
	}
	killedAt := map[int]int{}
	const phaseRounds = 40
	grace := gossip.DefaultAntiEntropyEvery + gossip.DefaultRumorRounds
	killed := map[int]bool{}
	for round := 0; round < phaseRounds; round++ {
		if round == 10 {
			for _, i := range rng.Perm(n)[:churn] {
				killed[i] = true
				alwaysLive[i] = false
				f.net.Kill(f.names[i])
			}
		}
		if round == 25 {
			for i := range killed {
				f.net.Revive(f.names[i])
				killedAt[i] = round
			}
			killed = map[int]bool{}
		}
		if round%2 == 0 {
			for i := 0; i < n; i++ {
				if !f.net.Down(f.names[i]) {
					f.publish(i)
				}
			}
		}
		f.tick()
		if round < 8 {
			continue // let the publishing cadence reach steady state
		}
		for i := range f.nodes {
			if !alwaysLive[i] {
				continue
			}
			for origin := 0; origin < n; origin++ {
				if killed[origin] {
					continue // dead origins legitimately age
				}
				if at, ok := killedAt[origin]; ok && round-at < grace {
					continue // revived origin still re-propagating
				}
				if age := f.nodes[i].Store().AgeSeconds(origin); age > res.MaxEntryAgeSeconds {
					res.MaxEntryAgeSeconds = age
				}
			}
		}
	}
	res.StalenessOK = res.MaxEntryAgeSeconds <= opts.StalenessBound
	return res
}

// meshConverged reports whether every node's digest matches node 0's.
func meshConverged(f *gossipFleet) bool {
	want := f.nodes[0].Store().Digest()
	for _, nd := range f.nodes[1:] {
		d := nd.Store().Digest()
		if len(d) != len(want) {
			return false
		}
		for origin, st := range want {
			if d[origin] != st {
				return false
			}
		}
	}
	return true
}

// FormatGossip renders the report as a fixed-width table.
func FormatGossip(rep GossipReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Gossip convergence (seed %d, p99 budget %.0f rounds)\n\n", rep.Seed, rep.P99Budget)
	fmt.Fprintf(&b, "%7s %8s %6s %6s %6s %6s %6s %10s %9s %6s\n",
		"agents", "samples", "p50", "p90", "p99", "max", "heal", "max-age(s)", "bound(s)", "pass")
	for _, s := range rep.Sizes {
		pass := s.PropagationOK && s.Converged && s.StalenessOK
		heal := fmt.Sprintf("%d", s.HealRounds)
		if !s.Converged {
			heal = "never"
		}
		fmt.Fprintf(&b, "%7d %8d %6.1f %6.1f %6.1f %6.1f %6s %10.1f %9.1f %6v\n",
			s.Agents, s.Samples, s.P50, s.P90, s.P99, s.Max, heal,
			s.MaxEntryAgeSeconds, s.StalenessBound, pass)
	}
	fmt.Fprintf(&b, "\noverall: pass=%v\n", rep.Pass)
	return b.String()
}

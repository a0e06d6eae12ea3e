package experiment

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"nodeselect/internal/randx"
	"nodeselect/internal/remos"
	"nodeselect/internal/remos/agent"
	"nodeselect/internal/selectsvc"
	"nodeselect/internal/testbed"
)

// ChaosOptions parameterizes the fault-schedule scenario: a real agent
// fleet on loopback, a chaos proxy on every path, and a selection service
// polling through the faults. Unlike the simulation experiments this one
// runs in wall-clock time — timeouts are real.
type ChaosOptions struct {
	// Seed drives the fault schedule and the proxies' fault streams.
	Seed int64
	// Rounds is the number of fault rounds after the healthy baseline
	// round (default 2). Each round faults a fresh subset and repairs it.
	Rounds int
	// PollsPerRound is the number of measurement polls per round
	// (default 4).
	PollsPerRound int
	// FaultFraction is the fraction of agents faulted each round
	// (default 0.2); alternate victims hang (response swallowed) and
	// crash (connection refused).
	FaultFraction float64
	// SelectM is the placement size requested each round (default 4).
	SelectM int
	// ConnectTimeout and IOTimeout bound each agent operation
	// (default 150ms each); MaxAttempts is tries per operation (default 1,
	// so the poll-time bound stays tight).
	ConnectTimeout time.Duration
	IOTimeout      time.Duration
	MaxAttempts    int
	// Period is the measurement-clock seconds per poll (default 0.5);
	// MaxStaleAge is the collector's staleness ceiling (default 3*Period,
	// so entities faulted for a full round age past it).
	Period      float64
	MaxStaleAge float64
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.Rounds <= 0 {
		o.Rounds = 2
	}
	if o.PollsPerRound <= 0 {
		o.PollsPerRound = 4
	}
	if o.FaultFraction <= 0 || o.FaultFraction >= 1 {
		o.FaultFraction = 0.2
	}
	if o.SelectM <= 0 {
		o.SelectM = 4
	}
	if o.ConnectTimeout <= 0 {
		o.ConnectTimeout = 150 * time.Millisecond
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = 150 * time.Millisecond
	}
	if o.MaxAttempts < 1 {
		o.MaxAttempts = 1
	}
	if o.Period <= 0 {
		o.Period = 0.5
	}
	if o.MaxStaleAge <= 0 {
		o.MaxStaleAge = 3 * o.Period
	}
	return o
}

// DeadlineBound is the wall-clock ceiling one poll may take under these
// options: the fleet refreshes in parallel, so the bound is one node's
// worst case — every attempt burning a full connect plus two round trips
// (identity check and read), plus maximum backoff between attempts — with
// scheduling grace on top.
func (o ChaosOptions) DeadlineBound() time.Duration {
	o = o.withDefaults()
	attempt := o.ConnectTimeout + 2*o.IOTimeout
	bound := time.Duration(o.MaxAttempts)*attempt +
		time.Duration(o.MaxAttempts-1)*500*time.Millisecond // BackoffMax default
	return bound + 500*time.Millisecond
}

// ChaosRound records one round of the schedule.
type ChaosRound struct {
	// Round numbers the rounds; 0 is the fault-free baseline.
	Round int
	// Hung and Crashed name the agents faulted this round, by node.
	Hung    []string
	Crashed []string
	// State is the service health state after the round's polls.
	State string
	// FreshFraction is the live fraction of the measurement view.
	FreshFraction float64
	// MaxPollSeconds is the slowest poll of the round.
	MaxPollSeconds float64
	// SelectOK reports whether /select answered 200 this round;
	// SelectDegraded is the response's degraded flag and StaleNodes its
	// stale-input list.
	SelectOK       bool
	SelectDegraded bool
	StaleNodes     []string
}

// ChaosResult is the outcome of the fault schedule.
type ChaosResult struct {
	// Agents is the fleet size.
	Agents int
	// DeadlineBoundSeconds is the configured per-poll ceiling and
	// MaxPollSeconds the slowest poll observed anywhere in the run; the
	// scenario passes only if the bound held.
	DeadlineBoundSeconds float64
	MaxPollSeconds       float64
	// Rounds are the per-round records, baseline first.
	Rounds []ChaosRound
	// Recovered reports whether the service returned to "ok" after the
	// final repair, within RecoveryPolls polls.
	Recovered      bool
	RecoveredState string
	RecoveryPolls  int
}

// RunChaos executes the fault schedule: start a full agent fleet behind
// chaos proxies, dial it with tight deadlines, and alternate fault rounds
// (a FaultFraction of agents hung or crashed) with repairs, asserting the
// service keeps answering placements from last-known-good data throughout.
func RunChaos(opt ChaosOptions) (ChaosResult, error) {
	opt = opt.withDefaults()
	res := ChaosResult{DeadlineBoundSeconds: opt.DeadlineBound().Seconds()}

	g := testbed.CMU()
	src := remos.NewStaticSource(g)
	rng := randx.New(opt.Seed).Split("chaos")
	for _, id := range g.ComputeNodes() {
		src.SetLoad(id, 2*rng.Float64())
	}

	cf, err := agent.StartChaosFleet(src, opt.Seed, agent.ChaosConfig{})
	if err != nil {
		return res, err
	}
	defer cf.Close()
	res.Agents = len(cf.Proxies)

	dc := agent.DialConfig{
		ConnectTimeout:   opt.ConnectTimeout,
		IOTimeout:        opt.IOTimeout,
		MaxAttempts:      opt.MaxAttempts,
		BreakerThreshold: 2,
		BreakerCooldown:  300 * time.Millisecond,
		AllowPartial:     true,
		Seed:             opt.Seed,
	}
	ns, err := dc.Dial(g, cf.Addrs())
	if err != nil {
		return res, err
	}
	defer ns.Close()

	svc := selectsvc.New(ns, selectsvc.Config{
		Collector: remos.CollectorConfig{
			Period:      opt.Period,
			History:     2 * opt.PollsPerRound,
			MaxStaleAge: opt.MaxStaleAge,
		},
		DefaultMode:  remos.Current,
		Seed:         opt.Seed,
		ExcludeStale: true,
	})
	handler := svc.Handler()

	// poll advances the measurement clock and takes one sample, recording
	// the wall time against the deadline bound.
	poll := func(r *ChaosRound) {
		src.Advance(opt.Period)
		t0 := time.Now()
		svc.Poll() // partial failures are the point; errors show in State
		dt := time.Since(t0).Seconds()
		if r != nil && dt > r.MaxPollSeconds {
			r.MaxPollSeconds = dt
		}
		if dt > res.MaxPollSeconds {
			res.MaxPollSeconds = dt
		}
	}

	runRound := func(round int, hung, crashed []int) ChaosRound {
		r := ChaosRound{Round: round}
		for _, n := range hung {
			cf.Proxies[n].Set(agent.ChaosConfig{HangRate: 1})
			r.Hung = append(r.Hung, g.Node(n).Name)
		}
		for _, n := range crashed {
			cf.Proxies[n].Pause()
			r.Crashed = append(r.Crashed, g.Node(n).Name)
		}
		for i := 0; i < opt.PollsPerRound; i++ {
			poll(&r)
		}
		state, health := svc.Health()
		r.State = state
		r.FreshFraction = health.FreshFraction

		body, _ := json.Marshal(selectsvc.SelectRequest{M: opt.SelectM})
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest("POST", "/select", bytes.NewReader(body)))
		r.SelectOK = w.Code == http.StatusOK
		if r.SelectOK {
			var resp selectsvc.SelectResponse
			if json.Unmarshal(w.Body.Bytes(), &resp) == nil {
				r.SelectDegraded = resp.Degraded
				r.StaleNodes = resp.StaleNodes
			}
		}
		// Repair: resume crashed proxies and clear fault injection.
		for _, n := range hung {
			cf.Proxies[n].Set(agent.ChaosConfig{})
		}
		for _, n := range crashed {
			cf.Proxies[n].Resume()
		}
		return r
	}

	// Round 0: fault-free baseline (also fills the Current-mode interval).
	res.Rounds = append(res.Rounds, runRound(0, nil, nil))

	k := int(opt.FaultFraction*float64(res.Agents) + 0.5)
	if k < 1 {
		k = 1
	}
	for round := 1; round <= opt.Rounds; round++ {
		perm := rng.Perm(res.Agents)
		var hung, crashed []int
		for i, n := range perm[:k] {
			if i%2 == 0 {
				hung = append(hung, n)
			} else {
				crashed = append(crashed, n)
			}
		}
		sort.Ints(hung)
		sort.Ints(crashed)
		res.Rounds = append(res.Rounds, runRound(round, hung, crashed))
	}

	// Recovery: all proxies repaired; poll until the breakers close and
	// the stale entries age out of the staleness window.
	time.Sleep(dc.BreakerCooldown)
	for i := 0; i < 3*opt.PollsPerRound; i++ {
		poll(nil)
		res.RecoveryPolls++
		state, _ := svc.Health()
		res.RecoveredState = state
		if state == selectsvc.StateOK {
			res.Recovered = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	return res, nil
}

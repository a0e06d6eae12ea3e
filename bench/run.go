package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// phases is how one run's measuring time is spent. The ratio is fixed at
// 2:15:5, so at the benchmark's 22 s the open-loop phase is 15 s and the
// closed-loop phase 5 s: each holds a whole number of 1 s and 5 s poll
// periods, and the phases start on a poll, so every window sees the same
// share of per-epoch work.
type phases struct{ warm, open, closed time.Duration }

// cuts is the number of windows the open-loop phase is cut into: the
// workload's window length against the phase's 15 s at 22 s.
func (w workload) cuts() int { return int(15 * time.Second / w.window) }

func splitRun(seconds int) phases {
	unit := time.Duration(seconds) * time.Second / 22
	return phases{warm: 2 * unit, open: 15 * unit, closed: 5 * unit}
}

const (
	// setups is how many times a run sets the workload up; setup_s is
	// their median.
	setups = 9
	// closedCuts is the number of equal cuts of the closed-loop phase;
	// throughput_rps is the median cut's rate.
	closedCuts = 20
	// closedPerSecond bounds the selects the closed loop can consume per
	// second; the stream is generated that much longer.
	closedPerSecond = 20000
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is what every run of this process shares.
type env struct {
	root    string
	bins    binaries
	rng     *rand.Rand // ports and retry jitter only; never inputs
	scratch string     // per-process directory under buildDir
	nconn   int
}

// setUp starts the workload's processes and returns once /healthz is ok and
// one select of each class in the mix has been answered correctly, with the
// time that took. A lease taken on the way is released after the clock
// stops.
func setUp(e *env, w workload, in *inputs, reqs []request, n int) (*instance, time.Duration, error) {
	t0 := time.Now()
	inst, err := start(w, in, e.bins, filepath.Join(e.scratch, fmt.Sprintf("%s-%d", w.name, n)), e.rng)
	if err != nil {
		return nil, 0, err
	}
	c := newClient(inst.addr)
	defer c.close()
	var leases []string
	for _, class := range classesOf(w) {
		for i := range reqs {
			if reqs[i].class != class {
				continue
			}
			sr, why := validSelect(in, &reqs[i], c.do("POST", "/select", reqs[i].body))
			if why != "" {
				return inst, 0, fmt.Errorf("set-up select (%s): %s", class, why)
			}
			if sr.Lease != nil {
				leases = append(leases, sr.Lease.ID)
			}
			break
		}
	}
	took := time.Since(t0)
	for _, id := range leases {
		if why := statusWhy(c.do("DELETE", "/leases/"+id, nil)); why != "" {
			return inst, 0, fmt.Errorf("set-up release: %s", why)
		}
	}
	return inst, took, nil
}

// settle waits for selectd's second poll, after which window snapshots rate
// links over a real interval, and returns right after it: the phases that
// follow are aligned to the poll epoch.
func settle(inst *instance, w workload, rng *rand.Rand) error {
	c := newClient(inst.addr)
	defer c.close()
	return waitFor("second measurement poll", w.period+20*time.Second, rng, func() bool {
		h, err := getHealth(c)
		return err == nil && h.Polls >= 2
	})
}

// runResult is what one run hands to main: the reported metrics and the
// record written to the result file.
type runResult struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metricValue
	// info holds numbers about the run itself (achieved rates, generator
	// lateness, the timing metrics of an untraced run); invalid lists why
	// the run's timings should not be used.
	info map[string]float64
	// windows holds the per-window values the windowed metrics were taken
	// from, so another statistic can be tried on a finished run.
	windows  map[string][]float64
	invalid  []string
	failures []string
}

// streamLength is how many requests to generate for a run.
func streamLength(w workload, ph phases) int {
	return int(w.rate*(ph.warm+ph.open).Seconds()*1.3) + int(closedPerSecond*ph.closed.Seconds()) + 64
}

// replay is everything one pass over the real processes produced: set-up,
// warm-up, open loop, closed loop, teardown with the correctness checks.
type replay struct {
	w  workload
	in *inputs
	ph phases
	d  *driver
	ck *checks

	setupS []float64
	// edges are selectd's CPU time and completed operations at each cut of
	// the open-loop phase; mem0 and mem1 its allocation counters at the
	// phase's two ends; before and after its /metrics there (traced only).
	edges         []cpuEdge
	mem0, mem1    memCounters
	before, after map[string]float64
	openWall      time.Duration
	closedDone    []time.Duration
	rssMB         float64
	oracleChecked int
}

// runReplay makes one pass. With a span log, the second half of the
// open-loop phase records a client span tree per operation and /metrics is
// read at the phase's ends: the traced pass.
func runReplay(e *env, w workload, seed int64, seconds, nSetups int, log *spanLog) (*replay, error) {
	rp := &replay{w: w, ph: splitRun(seconds), ck: &checks{}}
	ph := rp.ph
	var err error
	if rp.in, err = makeInputs(w, seed); err != nil {
		return nil, err
	}
	reqs := schedule(w, seed, streamLength(w, ph))

	var inst *instance
	for n := 0; n < nSetups; n++ {
		if inst != nil {
			if err := inst.stop(); err != nil {
				return nil, fmt.Errorf("set-up %d: %w", n, err)
			}
		}
		var took time.Duration
		if inst, took, err = setUp(e, w, rp.in, reqs, n); err != nil {
			return nil, err
		}
		rp.setupS = append(rp.setupS, took.Seconds())
	}
	if err := settle(inst, w, e.rng); err != nil {
		return nil, err
	}
	side := newClient(inst.addr)
	defer side.close()

	d := newDriver(w, rp.in, inst.addr, e.nconn, reqs)
	rp.d = d
	stopWatch := make(chan struct{})
	watched := make(chan int, 1)
	if w.has(leasedClass) {
		go func() { watched <- watchLeases(inst.addr, rp.ck, stopWatch) }()
	}

	// At the moment the sender reaches the first request due after warm-up
	// selectd's counters are read, and from then its CPU time and completed
	// operations at every cut's edge.
	n := w.cuts()
	cut := ph.open / time.Duration(n)
	edges := make(chan []cpuEdge, 1)
	var wall0 time.Time
	var markErr error
	marks := []mark{{at: ph.warm, fn: func() {
		if log != nil {
			rp.before, markErr = scrape(side)
		}
		if rp.mem0, err = readMemCounters(side); err != nil {
			markErr = err
		}
		wall0 = time.Now()
		go func() { edges <- sampleCPU(inst.pid(), d, d.t0.Add(ph.warm), cut, n) }()
	}}}
	if log != nil {
		marks = append(marks, mark{at: ph.warm + ph.open/2, fn: func() { d.spans.Store(log) }})
	}
	d.t0 = time.Now()
	d.runOpen(ph.warm+ph.open, func(due time.Duration) int {
		switch {
		case due < ph.warm:
			return phaseWarm
		case log != nil && due >= ph.warm+ph.open/2:
			return phaseTraced
		}
		return phaseOpen
	}, marks)
	d.spans.Store(nil)
	rp.openWall = time.Since(wall0)
	if markErr != nil {
		return nil, markErr
	}
	if rp.mem1, err = readMemCounters(side); err != nil {
		return nil, err
	}
	if log != nil {
		if rp.after, err = scrape(side); err != nil {
			return nil, err
		}
	}
	if rp.edges = <-edges; len(rp.edges) != n+1 {
		return nil, fmt.Errorf("read %d of %d CPU samples of selectd", len(rp.edges), n+1)
	}
	rp.closedDone = d.runClosed(ph.closed)
	d.drain()

	// Teardown checks.
	if w.has(leasedClass) {
		close(stopWatch)
		if <-watched == 0 {
			rp.ck.failf("lease watch never read /leases")
		}
		v, err := getLeases(side)
		switch {
		case err != nil:
			rp.ck.failf("final /leases: %v", err)
		case len(v.Leases) != 0:
			rp.ck.failf("ledger holds %d leases after the last release", len(v.Leases))
		}
	}
	rp.oracleChecked = oracle(w, rp.in, inst.addr, seed, rp.ck)
	if w.hierarchy {
		m, err := scrape(side)
		if err != nil {
			rp.ck.failf("final /metrics: %v", err)
		} else if n := m[`selectsvc_hierarchy_requests_total{path="fallback"}`]; n != 0 {
			rp.ck.failf("%v selects fell back to the flat path under -hierarchy", n)
		}
	}
	if rp.rssMB, err = peakRSSMB(inst.pid()); err != nil {
		return nil, err
	}
	if err := inst.stop(); err != nil {
		rp.ck.failf("%v", err)
	}
	return rp, nil
}

// summary is what a replay's samples add up to.
type summary struct {
	attempted, failed int // operations outside warm-up
	completed         int // operations of the open-loop phase
	sent, missed      int // its selects; those that failed or broke the limit
	scheduled         int // sent plus never sent
	lat               []float64
	sortedLat         []float64
	overshoot, wait   []float64
	serviceByClass    map[string][]float64
	sentByClass       map[string]int
	plainSvc          []float64 // select service times, first (untraced) half
	tracedSvc         []float64 // and second (traced) half of a traced pass

	// Per window: latency quantiles, CPU per operation; per closed-loop
	// cut: selects per second.
	p50s, p99s, cpuPerOp, rates []float64
	cpuOpen                     time.Duration
}

func (rp *replay) summarize() summary {
	s := summary{serviceByClass: map[string][]float64{}, sentByClass: map[string]int{}}
	var due []time.Duration
	for _, x := range rp.d.samples {
		if x.phase == phaseWarm {
			continue
		}
		s.attempted++
		if !x.ok {
			s.failed++
			rp.ck.failf("%s %s: %s", x.kind, x.class, x.why)
		}
		if x.phase == phaseClosed {
			continue
		}
		s.completed++
		s.overshoot = append(s.overshoot, ms(x.overshoot))
		s.wait = append(s.wait, ms(x.wait))
		if x.kind != opSelect {
			continue
		}
		s.sent++
		s.sentByClass[x.class]++
		s.lat = append(s.lat, ms(x.latency()))
		due = append(due, x.due)
		s.serviceByClass[x.class] = append(s.serviceByClass[x.class], ms(x.service()))
		if x.phase == phaseTraced {
			s.tracedSvc = append(s.tracedSvc, ms(x.service()))
		} else {
			s.plainSvc = append(s.plainSvc, ms(x.service()))
		}
		if !x.ok || x.latency() > rp.w.limit {
			s.missed++
		}
	}
	s.scheduled = s.sent + rp.d.unsent
	s.sortedLat = sortedCopy(s.lat)
	n := len(rp.edges) - 1
	for i := 1; i <= n; i++ {
		if ops := rp.edges[i].ops - rp.edges[i-1].ops; ops > 0 {
			s.cpuPerOp = append(s.cpuPerOp, ms(rp.edges[i].cpu-rp.edges[i-1].cpu)/float64(ops))
		}
	}
	s.cpuOpen = rp.edges[n].cpu - rp.edges[0].cpu
	s.p50s = perWindow(due, s.lat, rp.ph.warm, rp.ph.open, n, 0.50)
	s.p99s = perWindow(due, s.lat, rp.ph.warm, rp.ph.open, n, 0.99)
	s.rates = perWindowRate(rp.closedDone, rp.ph.closed, closedCuts)
	return s
}

// timingMetrics are the four host-sensitive metrics, each from the
// quietest-quarter window.
func (s summary) timingMetrics() map[string]float64 {
	return map[string]float64{
		"select_p50_ms":  quietest(s.p50s, false),
		"select_p99_ms":  quietest(s.p99s, false),
		"throughput_rps": quietest(s.rates, true),
		"cpu_ms_per_req": quietest(s.cpuPerOp, false),
	}
}

// runEndToEnd is one untraced run: it sets the workload up several times
// (once for a smoke run), replays, and reports the end-to-end metrics.
func runEndToEnd(e *env, w workload, seed int64, seconds int, smoke bool) (*runResult, error) {
	nSetups := setups
	if smoke {
		nSetups = 1
	}
	rp, err := runReplay(e, w, seed, seconds, nSetups, nil)
	if err != nil {
		return nil, err
	}
	s := rp.summarize()
	ops := float64(max(s.completed, 1))
	res := &runResult{
		attempted: s.attempted + rp.oracleChecked,
		failed:    s.failed,
		metrics: map[string]metricValue{
			"setup_s":          {median(rp.setupS), "s"},
			"peak_rss_mb":      {rp.rssMB, "MB"},
			"alloc_kb_per_req": {(rp.mem1.totalAlloc - rp.mem0.totalAlloc) / 1024 / ops, "KB"},
			"allocs_per_req":   {(rp.mem1.mallocs - rp.mem0.mallocs) / ops, "count"},
		},
		windows: map[string][]float64{
			"select_p50_ms": s.p50s, "select_p99_ms": s.p99s, "throughput_rps": s.rates, "cpu_ms_per_req": s.cpuPerOp,
		},
		info: map[string]float64{
			"slo_miss_share":             share(s.missed+rp.d.unsent, s.scheduled),
			"fail_share":                 share(s.failed, s.attempted),
			"select_p50_whole_phase_ms":  percentile(s.sortedLat, 0.50),
			"select_p99_whole_phase_ms":  percentile(s.sortedLat, 0.99),
			"select_p999_ms":             percentile(s.sortedLat, 0.999),
			"select_max_ms":              percentile(s.sortedLat, 1),
			"gen_overshoot_p99_ms":       percentile(sortedCopy(s.overshoot), 0.99),
			"sent_share":                 share(s.sent, s.scheduled),
			"open_selects_sent":          float64(s.sent),
			"open_achieved_rps":          float64(s.sent) / rp.ph.open.Seconds(),
			"open_wall_s":                rp.openWall.Seconds(),
			"selectd_cpu_share":          s.cpuOpen.Seconds() / rp.ph.open.Seconds(),
			"cpu_ms_per_req_whole_phase": ms(s.cpuOpen) / ops,
			"throughput_whole_phase_rps": float64(len(rp.closedDone)) / rp.ph.closed.Seconds(),
			"oracle_answers_checked":     float64(rp.oracleChecked),
			"setup_s_min":                sortedCopy(rp.setupS)[0],
			"setup_s_max":                sortedCopy(rp.setupS)[len(rp.setupS)-1],
			"gc_cycles":                  rp.mem1.numGC - rp.mem0.numGC,
		},
	}
	for name, v := range s.timingMetrics() {
		res.info[name] = v
	}
	res.invalid = validity(res.info["gen_overshoot_p99_ms"], res.info["sent_share"])
	res.failures = rp.ck.list()
	res.correct = len(res.failures) == 0
	return res, nil
}

// validity lists why a run's timings should not be used: the generator ran
// late, or could not send what was scheduled.
func validity(overshootP99ms, sentShare float64) []string {
	var out []string
	if overshootP99ms > 2 {
		out = append(out, fmt.Sprintf("generator overshoot p99 %.2f ms exceeds 2 ms", overshootP99ms))
	}
	if sentShare < 0.98 {
		out = append(out, fmt.Sprintf("only %.1f%% of scheduled selects were sent within the phase", 100*sentShare))
	}
	return out
}

// cpuEdge is selectd's CPU time and the open-loop operations completed at
// one cut's edge.
type cpuEdge struct {
	cpu time.Duration
	ops int64
}

// sampleCPU reads n+1 edges, cut apart, the first at from. It returns
// fewer if selectd's /proc entry cannot be read.
func sampleCPU(pid int, d *driver, from time.Time, cut time.Duration, n int) []cpuEdge {
	out := make([]cpuEdge, 0, n+1)
	for i := 0; i <= n; i++ {
		time.Sleep(time.Until(from.Add(time.Duration(i) * cut)))
		cpu, err := cpuTime(pid)
		if err != nil {
			return out
		}
		out = append(out, cpuEdge{cpu: cpu, ops: d.openDone.Load()})
	}
	return out
}

// printMetrics writes every metric by name with its unit, sorted, for a
// reader; the machine-readable line comes last and separately.
func printMetrics(w *os.File, title string, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func nproc() int { return runtime.NumCPU() }

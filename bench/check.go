package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"nodeselect/internal/core"
	"nodeselect/internal/hierarchy"
	"nodeselect/internal/selectsvc"
	"nodeselect/internal/topology"
)

// checks collects the reasons a run is not correct. Its methods are safe
// for concurrent use.
type checks struct {
	mu       sync.Mutex
	failures []string
}

func (c *checks) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failures) < 20 { // enough to diagnose; a broken run repeats itself
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *checks) list() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.failures...)
}

// scrape reads GET /metrics into a map keyed by the sample's name with its
// label set, exactly as exposed: `name{label="v"}`.
func scrape(c *client) (map[string]float64, error) {
	r := c.do("GET", "/metrics", nil)
	if r.err != nil {
		return nil, r.err
	}
	if r.status != 200 {
		return nil, fmt.Errorf("GET /metrics: status %d", r.status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// memCounters are selectd's cumulative Go allocation counters.
type memCounters struct{ totalAlloc, mallocs, numGC float64 }

// readMemCounters reads them from the runtime.MemStats dump at the foot of
// /debug/pprof/heap?debug=1, which selectd serves under -debug.
func readMemCounters(c *client) (memCounters, error) {
	var m memCounters
	r := c.do("GET", "/debug/pprof/heap?debug=1", nil)
	if r.err != nil {
		return m, r.err
	}
	if r.status != 200 {
		return m, fmt.Errorf("GET /debug/pprof/heap: status %d (does selectd still take -debug?)", r.status)
	}
	found := 0
	for _, line := range strings.Split(string(r.body), "\n") {
		for name, dst := range map[string]*float64{"# TotalAlloc = ": &m.totalAlloc, "# Mallocs = ": &m.mallocs, "# NumGC = ": &m.numGC} {
			if rest, ok := strings.CutPrefix(line, name); ok {
				v, err := strconv.ParseFloat(rest, 64)
				if err != nil {
					return m, fmt.Errorf("heap dump: %q: %w", line, err)
				}
				*dst = v
				found++
			}
		}
	}
	if found != 3 {
		return m, fmt.Errorf("heap dump names %d of the 3 counters wanted", found)
	}
	return m, nil
}

// leaseView is the part of GET /leases the benchmark checks.
type leaseView struct {
	Leases []struct {
		ID string `json:"id"`
	} `json:"leases"`
	MaxCPU float64 `json:"max_cpu_committed"`
	MaxBW  float64 `json:"max_bw_committed"`
}

func getLeases(c *client) (leaseView, error) {
	var v leaseView
	r := c.do("GET", "/leases", nil)
	if r.err != nil {
		return v, r.err
	}
	if r.status != 200 {
		return v, fmt.Errorf("GET /leases: status %d", r.status)
	}
	return v, json.Unmarshal(r.body, &v)
}

// watchLeases polls GET /leases once a second on its own connection until
// stop is closed and fails the run if any node or link is ever committed
// above its capacity. It returns the number of polls made.
func watchLeases(addr string, ck *checks, stop <-chan struct{}) int {
	c := newClient(addr)
	defer c.close()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	polls := 0
	for {
		select {
		case <-stop:
			return polls
		case <-t.C:
		}
		v, err := getLeases(c)
		if err != nil {
			ck.failf("lease watch: %v", err)
			continue
		}
		polls++
		if v.MaxCPU > 1 || v.MaxBW > 1 {
			ck.failf("ledger oversubscribed: max cpu committed %.3f, max bw committed %.3f", v.MaxCPU, v.MaxBW)
		}
	}
}

// oracleCount is the number of seeded answers recomputed in the benchmark.
const oracleCount = 50

// oracle sends oracleCount seeded plain selects and recomputes each answer
// in the benchmark from the window snapshot selectd serves: core.SelectOpt
// on the flat workloads, hierarchy.Select on its own hierarchy.Build (never
// the all-pairs route table) with -hierarchy. Nodes and min_resource must
// match exactly. An answer is compared only with the snapshot of its own
// measurement epoch: /healthz's poll count is read around the snapshot and
// after every answer, and a poll in between refetches. (measured_at alone
// does not name an epoch: two polls can read the same source clock, and
// their window averages then differ in the last bit, enough to break a tie
// between equally good clusters the other way.) It runs after the drain,
// when the residual view equals the raw one, and returns how many answers
// were checked.
func oracle(w workload, in *inputs, addr string, seed int64, ck *checks) int {
	c := newClient(addr)
	defer c.close()
	plain := w
	plain.mix = []mixPart{{advDistinct, 1}}
	reqs := schedule(plain, seed+7919, oracleCount)

	var (
		snap  *topology.Snapshot
		part  *hierarchy.Partition
		epoch int
	)
	polls := func() (int, error) {
		h, err := getHealth(c)
		return h.Polls, err
	}
	// fetch reads the snapshot of one epoch: the poll count is the same
	// before and after the read.
	fetch := func() error {
		for try := 0; try < 5; try++ {
			before, err := polls()
			if err != nil {
				return err
			}
			r := c.do("GET", "/snapshot?mode=window", nil)
			if r.err != nil {
				return r.err
			}
			if r.status != 200 {
				return fmt.Errorf("GET /snapshot: status %d", r.status)
			}
			after, err := polls()
			if err != nil {
				return err
			}
			if after != before {
				continue
			}
			_, s, err := topology.ReadDocument(bytes.NewReader(r.body))
			if err != nil {
				return err
			}
			if s == nil {
				return fmt.Errorf("GET /snapshot: document without a snapshot")
			}
			snap, part, epoch = s, nil, after
			if w.hierarchy {
				part = hierarchy.Build(s)
			}
			return nil
		}
		return fmt.Errorf("GET /snapshot: a poll landed on each of 5 reads")
	}
	if err := fetch(); err != nil {
		ck.failf("oracle: %v", err)
		return 0
	}
	checked, refetches := 0, 0
	for i := 0; i < len(reqs); {
		req := &reqs[i]
		sr, why := validSelect(in, req, c.do("POST", "/select", req.body))
		if why != "" {
			ck.failf("oracle select %d: %s", i, why)
			i++
			continue
		}
		now, err := polls()
		if err != nil {
			ck.failf("oracle: %v", err)
			return checked
		}
		if now != epoch {
			if refetches++; refetches > 10 {
				ck.failf("oracle: the measurement epoch moved %d times in %d selects", refetches, oracleCount)
				return checked
			}
			if err := fetch(); err != nil {
				ck.failf("oracle: %v", err)
				return checked
			}
			continue // resend against the fresh epoch
		}
		var body selectsvc.SelectRequest
		if err := json.Unmarshal(req.body, &body); err != nil {
			ck.failf("oracle: own body: %v", err)
			return checked
		}
		creq := core.Request{M: body.M, MinCPU: body.MinCPU}
		var res core.Result
		if w.hierarchy {
			res, _, err = hierarchy.Select(body.Algo, snap, part, creq, nil, core.Options{})
		} else {
			res, err = core.SelectOpt(body.Algo, snap, creq, nil, core.Options{})
		}
		switch {
		case err != nil:
			ck.failf("oracle select %d: recompute failed: %v", i, err)
		case strings.Join(res.Names(snap.Graph), ",") != strings.Join(sr.Nodes, ","):
			ck.failf("oracle select %d (%s): nodes %v, recomputed %v", i, req.body, sr.Nodes, res.Names(snap.Graph))
		case res.MinResource != sr.MinResource:
			ck.failf("oracle select %d (%s): min_resource %v, recomputed %v", i, req.body, sr.MinResource, res.MinResource)
		}
		checked++
		i++
	}
	return checked
}

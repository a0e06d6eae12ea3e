package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"nodeselect/internal/appspec"
	"nodeselect/internal/core"
	"nodeselect/internal/lease"
	"nodeselect/internal/randx"
	"nodeselect/internal/selectsvc"
	"nodeselect/internal/testbed"
	"nodeselect/internal/topology"
)

// Request classes. A class fixes how a /select body is drawn and which
// layers of selectd the request reaches.
const (
	// advRepeat draws from a pool of four plain advisory bodies, so the
	// plan cache can answer it.
	advRepeat = "adv_repeat"
	// advDistinct is a plain advisory select whose plan key never repeats
	// (a per-request min_cpu of i*1e-9), so every one is a cache miss over
	// the same feasible set.
	advDistinct = "adv_distinct"
	// specClass carries an appspec document (FFT, Airshed or MRI).
	specClass = "spec"
	// leasedClass admits and reserves: acquire, optional renew 0.5 s
	// later, release 1 s later.
	leasedClass = "leased"
)

var classes = []string{advRepeat, advDistinct, specClass, leasedClass}

// Follow-up delays of a leased select, measured from its reply.
const (
	renewAfter   = 500 * time.Millisecond
	releaseAfter = time.Second
)

// mixPart is one class's share of a workload's selects.
type mixPart struct {
	class string
	share float64
}

// workload is one named set of inputs: a topology, how selectd is started
// on it, and the traffic mix sent to it. The values are frozen: the same
// on every commit, so numbers stay comparable.
type workload struct {
	name string
	// graph builds the topology; loaded paints the seeded ~35%-loaded
	// snapshot of cmd/topogen onto it.
	graph func() *topology.Graph
	// agents starts a remosd fleet and points selectd at it over TCP;
	// otherwise selectd reads the document on stdin.
	agents    bool
	period    time.Duration
	hierarchy bool
	leaseDir  bool
	mix       []mixPart
	// rate is selects per second in the open-loop phase (renews and
	// releases ride on top); limit is the latency a select must meet.
	rate  float64
	limit time.Duration
	// mLo..mHi bounds the node count of an adv_distinct request.
	mLo, mHi int
	// window is the length of one cut of the open-loop phase (at the
	// benchmark's 22 s; it scales with -seconds). Each latency and CPU
	// metric is the median over the cuts of the cut's own value, so a host
	// hiccup spoils one cut and not the run. It is 1 s unless per-epoch
	// work is part of what the workload measures; then it is the poll
	// period, so every cut holds exactly one epoch.
	window time.Duration
}

var workloads = []workload{
	{
		// The paper's 21-node CMU testbed behind a live remosd agent fleet;
		// a read-only mix where selectsvc itself (decode, plan cache, audit,
		// trace, encode) is the cost.
		name:   "fig4_advisory",
		graph:  testbed.CMU,
		agents: true,
		period: time.Second,
		mix:    []mixPart{{advRepeat, 0.65}, {advDistinct, 0.25}, {specClass, 0.10}},
		rate:   600,
		limit:  5 * time.Millisecond,
		mLo:    2, mHi: 8,
		window: time.Second,
	},
	{
		// A 211-node multicluster, every select a plan-cache miss and no
		// leases, so core's flat sweep, scorer and route walking do the work.
		name:   "flat200_sweep",
		graph:  func() *topology.Graph { return testbed.MultiCluster(10, 20, testbed.Ethernet100, testbed.Ethernet100) },
		period: 2 * time.Second,
		mix:    []mixPart{{advDistinct, 1}},
		rate:   150,
		limit:  25 * time.Millisecond,
		mLo:    4, mHi: 16,
		window: time.Second,
	},
	{
		// The same 211 nodes with leased selects beside cacheable ones:
		// commits flush the plan cache, residual views carry reservations,
		// WAL fsync is on the path.
		name:     "flat200_admit",
		graph:    func() *topology.Graph { return testbed.MultiCluster(10, 20, testbed.Ethernet100, testbed.Ethernet100) },
		period:   2 * time.Second,
		leaseDir: true,
		mix:      []mixPart{{leasedClass, 0.5}, {advRepeat, 0.5}},
		rate:     120,
		limit:    50 * time.Millisecond,
		mLo:      4, mHi: 16,
		window: time.Second,
	},
	{
		// A 10101-node two-tier fabric with -hierarchy: the partition build
		// per poll epoch and the quotient sweep do the work; the flat path and
		// the all-pairs routes must stay untouched.
		name:      "tiered10k_hier",
		graph:     func() *topology.Graph { return testbed.MultiCluster(100, 100, testbed.Ethernet100, 1e9) },
		period:    5 * time.Second,
		hierarchy: true,
		mix:       []mixPart{{advDistinct, 1}},
		rate:      20,
		limit:     100 * time.Millisecond,
		mLo:       8, mHi: 64,
		window: 5 * time.Second,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) has(class string) bool {
	for _, p := range w.mix {
		if p.class == class {
			return true
		}
	}
	return false
}

// inputs is what the programs receive besides the request stream: the
// topology document with its loaded snapshot.
type inputs struct {
	graph *topology.Graph
	snap  *topology.Snapshot
	doc   []byte
	// compute is the set of compute node names, for answer validation.
	compute map[string]bool
}

// loadedSnapshot reproduces cmd/topogen's -snapshot: about a third of the
// nodes loaded, about a third of the links partly used.
func loadedSnapshot(g *topology.Graph, src *randx.Source) *topology.Snapshot {
	s := topology.NewSnapshot(g)
	for _, id := range g.ComputeNodes() {
		if src.Float64() < 0.35 {
			s.SetLoad(id, src.Uniform(0.5, 4))
		}
	}
	for l := 0; l < g.NumLinks(); l++ {
		if src.Float64() < 0.35 {
			s.SetUtilization(l, src.Uniform(0.2, 0.95))
		}
	}
	return s
}

// snapshotSeed paints every workload's snapshot. It is not the run's seed:
// which nodes and links are loaded decides how many tiers a sweep walks and
// how many nodes a partition collapses, so a snapshot per seed would make
// the cost of a request, not just its arrival time, differ from run to run
// (on flat200_sweep by a quarter). The seed draws the traffic.
const snapshotSeed = 1

func makeInputs(w workload, seed int64) (*inputs, error) {
	g := w.graph()
	snap := loadedSnapshot(g, randx.New(snapshotSeed).Split("snapshot"))
	var doc bytes.Buffer
	if err := topology.WriteDocument(&doc, g, snap); err != nil {
		return nil, fmt.Errorf("write topology document: %w", err)
	}
	in := &inputs{graph: g, snap: snap, doc: doc.Bytes(), compute: map[string]bool{}}
	for _, id := range g.ComputeNodes() {
		in.compute[g.Node(id).Name] = true
	}
	return in, nil
}

// request is one scheduled /select: when it is due, what is sent and what
// a valid answer must hold.
type request struct {
	due   time.Duration
	class string
	body  []byte
	// want is the node count a 200 answer must carry.
	want int
	// renew marks a leased select whose lease is renewed before release.
	renew bool
}

// repeatPool is the four cacheable bodies of adv_repeat.
var repeatPool = []selectsvc.SelectRequest{
	{M: 4, Algo: core.AlgoBalanced},
	{M: 6, Algo: core.AlgoBandwidth},
	{M: 8, Algo: core.AlgoBalanced},
	{M: 3, Algo: core.AlgoBandwidth},
}

// specPool is the paper's three applications as appspec documents; the MRI
// master is restricted to two hosts of the CMU testbed.
var specPool = []appspec.Spec{
	{Name: "fft", Nodes: 4, Pattern: appspec.AllToAll},
	{Name: "airshed", Nodes: 5, Pattern: appspec.AllToAll, ComputePriority: 2},
	{Name: "mri", Pattern: appspec.MasterSlave, Groups: []appspec.Group{
		{Name: "master", Count: 1, Hosts: []string{"m-1", "m-7"}},
		{Name: "slaves", Count: 3, Arch: "alpha"},
	}},
}

// leaseDemand is sized so that ~60 live leases of 2-4 nodes keep every
// node and link under half committed on the 211-node topology: no 409 is
// expected.
var leaseDemand = lease.Demand{CPU: 0.05, BW: 1e6}

// schedule draws the request stream of a workload: Poisson arrivals at the
// workload's rate from randx, classes by the mix, bodies by class. The same
// (workload, seed) gives byte-identical output; count bounds the stream.
func schedule(w workload, seed int64, count int) []request {
	root := randx.New(seed).Split("schedule")
	arrivals := root.Split("arrivals")
	pick := root.Split("class")
	draw := root.Split("body")
	proc := randx.NewPoissonProcess(w.rate)

	out := make([]request, 0, count)
	var at float64
	for i := 0; i < count; i++ {
		at += proc.NextInterarrival(arrivals)
		r := request{due: time.Duration(at * float64(time.Second))}
		u := pick.Float64()
		for _, p := range w.mix {
			r.class = p.class
			if u < p.share {
				break
			}
			u -= p.share
		}
		var body selectsvc.SelectRequest
		switch r.class {
		case advRepeat:
			body = repeatPool[draw.Intn(len(repeatPool))]
			r.want = body.M
		case advDistinct:
			body.M = w.mLo + draw.Intn(w.mHi-w.mLo+1)
			body.Algo = core.AlgoBalanced
			if draw.Intn(2) == 1 {
				body.Algo = core.AlgoBandwidth
			}
			body.MinCPU = float64(i+1) * 1e-9
			r.want = body.M
		case specClass:
			spec := specPool[draw.Intn(len(specPool))]
			body.Spec = &spec
			r.want = spec.TotalNodes()
		case leasedClass:
			body.M = 2 + draw.Intn(3)
			body.Algo = core.AlgoBalanced
			d := leaseDemand
			body.Demand = &d
			body.LeaseTTL = 30
			r.want = body.M
			r.renew = draw.Intn(2) == 1
		}
		b, err := json.Marshal(body)
		if err != nil {
			panic(fmt.Sprintf("bench: marshal %s body: %v", r.class, err)) // fixed struct types: only a bug can fail
		}
		r.body = b
		out = append(out, r)
	}
	return out
}

// classesOf lists the classes of a mix in the fixed order of the classes
// slice.
func classesOf(w workload) []string {
	var out []string
	for _, c := range classes {
		if w.has(c) {
			out = append(out, c)
		}
	}
	return out
}

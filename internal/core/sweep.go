package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"nodeselect/internal/topology"
)

// Group is a set of interchangeable leaves the sweep may treat as one
// vertex: degree-1 compute nodes hanging off one anchor over access links
// that carry the same metric under every request, so the whole set enters
// and leaves the edge-deletion sweep at one threshold.
type Group struct {
	// Anchor is the node every member's single link leads to; it belongs
	// to no group.
	Anchor int
	// Members are ranked as topCPUNodes ranks candidates: effective CPU
	// descending, ID ascending.
	Members []int
	// Link is one member's access link, standing in for all of them.
	Link int
	// MinID is the smallest member ID.
	MinID int
}

// Grouping is an optional pre-merge of the sweep's vertices: each Group is
// one vertex behind a single activation edge to its anchor, every other
// node a vertex of its own. A nil *Grouping groups nothing.
type Grouping struct {
	graph  *topology.Graph
	groups []Group
	// loose are the ungrouped node IDs, ascending: vertex i < len(loose) is
	// node loose[i], vertex len(loose)+j is groups[j]. vertex maps a node
	// ID to its loose index, or -1 for a group member.
	loose  []int
	vertex []int
}

// NewGrouping indexes groups over g. The groups must be disjoint.
func NewGrouping(g *topology.Graph, groups []Group) *Grouping {
	gr := &Grouping{graph: g, groups: groups, vertex: make([]int, g.NumNodes())}
	grouped := 0
	for j := range groups {
		grouped += len(groups[j].Members)
		for _, id := range groups[j].Members {
			gr.vertex[id] = -1
		}
	}
	gr.loose = make([]int, 0, g.NumNodes()-grouped)
	for id := range gr.vertex {
		if gr.vertex[id] >= 0 {
			gr.vertex[id] = len(gr.loose)
			gr.loose = append(gr.loose, id)
		}
	}
	return gr
}

// Applies reports whether Sweep honours the grouping for this request:
// inside the simple class — M ≥ 2, no pinned nodes, no latency ceiling, no
// observer, no paper-literal ablation — over the graph the grouping was
// built on. Below M = 2 a group's members are singleton components, which
// the grouped vertices do not track; pins and ceilings make candidates
// depend on member identity rather than rank; the observer's trace and the
// ablations are defined on the ungrouped enumeration. Every other shape
// runs the same sweep ungrouped.
func (gr *Grouping) Applies(s *topology.Snapshot, req Request, opts Options) bool {
	return gr != nil && s != nil && gr.graph == s.Graph &&
		req.M >= 2 && len(req.Pinned) == 0 && req.MaxPairLatency <= 0 &&
		opts.Observer == nil && !opts.PaperEarlyStop && !opts.PaperSingleEdgeRemoval
}

// vertex is one sweep vertex's union-find cell together with the component
// aggregates, which are valid at roots. The cells of a 10k-node sweep are
// most of a fresh scratch, hence the narrow integers.
type vertex struct {
	parent, size int32
	// next links the component's vertices into a ring.
	next int32
	// minID is the component's smallest node ID; eligCnt and pinCnt count
	// its eligible and its pinned compute nodes.
	minID, eligCnt, pinCnt int32
	// cur is the index of the record describing the root's current
	// component state, or -1; dirtyTier is the last tier whose merges
	// touched it.
	cur, dirtyTier int32
	// The vertex's own eligible nodes, in rank order, are
	// scratch.elig[eligLo:eligHi]. top is the component's best ≤ m eligible
	// nodes; it aliases that range until the vertex wins a union and from
	// then on lives in own, a buffer of capacity ≥ m the root keeps across
	// further merges.
	eligLo, eligHi int32
	top, own       []int
}

// edge is a usable link between two vertices, or a group's activation (the
// single edge standing in for every access link of the group).
type edge struct {
	metric     float64
	a, b, link int32
}

// component is one recorded member of the laminar family the sweep
// enumerates: a component of the graph restricted to edges above some
// metric threshold, alive over the reference rounds [birth, death], that
// yielded a candidate. birth stays 0 for the never-absorbed final roots;
// death is the round count k for the initial singletons. score and tag are
// the evaluator's: its best candidate's score and whatever names it.
type component struct {
	birth, death, minID, tag int32
	score                    float64
}

// scratch is one sweep's working set. Nothing in it outlives a request
// except capacity: every field is re-initialised by the next one, and nothing
// handed to a caller aliases it — the memo's arena holds every scored set and
// hands out copies. A finished sweep parks it on scratches, so a warmed
// select allocates little beyond the winner's node set (and, under an
// observer, the trace): the buffers are grown once, to the largest graph and
// m served, and kept — a cold 10k-node grouped scratch is ≈ 1.3 MB retained
// for ≈ 3.5 MB of append-doubling, which is why no request should pay for it
// twice and why what it holds per vertex, edge and record is kept small.
type scratch struct {
	verts []vertex
	// free holds released own-buffers, each of capacity bufCap.
	free   [][]int
	bufCap int

	elig    []int // every vertex's own eligible nodes, vertex by vertex
	edges   []edge
	tiers   [][]edge // equal-metric runs of edges, ascending
	recs    []component
	pools   [][]SweepCandidate // per record, for the replay of components with several pools
	memo    poolMemo
	dirty   []int
	merged  []int            // mergeTop's output before it is copied to its owner
	nodes   []int            // a candidate set or member list, sorted by ID
	byMinID []int            // replaySweep's component order
	cands   []SweepCandidate // and one round's candidates before they are copied out
}

// scratches parks finished sweeps' working sets, last in first out: the one
// grown most recently is the next taken, by whichever goroutine asks, and —
// unlike the runtime's per-P pools — no garbage collection empties it.
// putScratch keeps at most GOMAXPROCS (more sweeps cannot run at once) and
// drops the rest, so it retains that many scratches at the high-water mark
// of the graphs swept.
var scratches struct {
	sync.Mutex
	parked []*scratch
}

func newScratch() *scratch {
	return &scratch{memo: poolMemo{index: make(map[uint64]int32)}}
}

func getScratch() *scratch {
	scratches.Lock()
	defer scratches.Unlock()
	n := len(scratches.parked)
	if n == 0 {
		return newScratch()
	}
	sc := scratches.parked[n-1]
	scratches.parked[n-1] = nil
	scratches.parked = scratches.parked[:n-1]
	return sc
}

func putScratch(sc *scratch) {
	scratches.Lock()
	defer scratches.Unlock()
	if len(scratches.parked) < runtime.GOMAXPROCS(0) {
		scratches.parked = append(scratches.parked, sc)
	}
}

// reset returns every owned top buffer to the free list and drops the
// references to the finished request's results.
func (sc *scratch) reset() {
	for i := range sc.verts {
		if buf := sc.verts[i].own; buf != nil {
			sc.free = append(sc.free, buf)
		}
	}
	clear(sc.verts)
	clear(sc.pools)
	sc.memo.reset()
}

// topBuf hands out an empty buffer of capacity ≥ m for a root's top list.
func (sc *scratch) topBuf(m int) []int {
	if m > sc.bufCap {
		sc.free, sc.bufCap = sc.free[:0], m // smaller buffers are of no use any more
	}
	if n := len(sc.free); n > 0 {
		buf := sc.free[n-1]
		sc.free = sc.free[:n-1]
		return buf[:0]
	}
	return make([]int, 0, sc.bufCap)
}

// find returns the root of x's component, halving the path.
func (sc *scratch) find(x int) int {
	verts := sc.verts
	for int(verts[x].parent) != x {
		verts[x].parent = verts[verts[x].parent].parent
		x = int(verts[x].parent)
	}
	return x
}

// members returns the eligible nodes of root's component in ascending ID
// order, valid until the next call.
func (sc *scratch) members(root int) []int {
	out := sc.nodes[:0]
	for x := root; ; {
		v := &sc.verts[x]
		out = append(out, sc.elig[v.eligLo:v.eligHi]...)
		if x = int(v.next); x == root {
			break
		}
	}
	slices.Sort(out)
	sc.nodes = out
	return out
}

// topSet returns root's component's best-CPU m eligible nodes in ascending
// ID order, valid until the next call. It ignores pins.
func (sc *scratch) topSet(root int) []int {
	sc.nodes = append(sc.nodes[:0], sc.verts[root].top...)
	slices.Sort(sc.nodes)
	return sc.nodes
}

// enumerate is the union-find form of the Figure 2/3 edge-deletion sweep,
// and the only one. Instead of deleting edges in ascending metric order
// and recomputing connected components after every round — O(E·(V+E)) — it
// adds the same edges in descending order to a disjoint-set forest (the
// Kruskal maximum-bottleneck construction). Every component the deletion
// loop ever evaluates appears exactly once as a merge state of the forest,
// so each member of that laminar family is handed to eval a single time:
// eval(root) returns the component's best candidate score and a tag naming
// that candidate, or false when it yields none. The returned records are in
// eval order, one per true.
//
// A root carries what an evaluator needs without a traversal: the merged
// best-CPU m eligible nodes (topSet) — the incremental top-m merge is what
// makes the simple class cheap — and, for the shapes where candidates
// depend on member identity, the full eligible member list (members).
//
// With a grouping each group is one vertex of weight len(Members) behind
// one activation edge at its access links' shared metric, so the tier
// value sequence equals the ungrouped one; with M ≥ 2 the sub-activation
// fragments (isolated members) can never record, hence the recorded family
// — births, deaths, min IDs, top sets — is the ungrouped one exactly. The
// caller passes a grouping only where Applies holds.
func (sc *scratch) enumerate(s *topology.Snapshot, req Request, gr *Grouping, balanced bool,
	eval func(root int) (score float64, tag int, ok bool)) ([]component, error) {
	if err := req.check(s); err != nil {
		return nil, err
	}
	g := s.Graph
	m := req.M
	pinned := req.pinnedSet()

	// Vertices: loose nodes first, then groups.
	var groups []Group
	nl := g.NumNodes()
	if gr != nil {
		groups, nl = gr.groups, len(gr.loose)
	}
	nv := nl + len(groups)
	sc.verts = slices.Grow(sc.verts[:0], nv)[:nv]
	sc.elig = slices.Grow(sc.elig[:0], g.NumNodes()) // never regrown below: top lists alias it
	verts := sc.verts
	// seed makes vertex i a singleton component of the given weight and
	// smallest ID whose eligible nodes are what sc.elig gained since lo.
	seed := func(i, size, minID, lo int) *vertex {
		hi := len(sc.elig)
		verts[i] = vertex{parent: int32(i), size: int32(size), next: int32(i), minID: int32(minID),
			eligCnt: int32(hi - lo), cur: -1, dirtyTier: -1, eligLo: int32(lo), eligHi: int32(hi),
			top: sc.elig[lo:min(hi, lo+m):hi]}
		return &verts[i]
	}
	for i := 0; i < nl; i++ {
		id := i
		if gr != nil {
			id = gr.loose[i]
		}
		lo := len(sc.elig)
		if g.Node(id).Kind == topology.Compute && (pinned[id] || req.admits(s, id)) {
			sc.elig = append(sc.elig, id)
		}
		if v := seed(i, 1, id, lo); pinned[id] {
			v.pinCnt = 1
		}
	}
	for j := range groups {
		b := &groups[j]
		lo := len(sc.elig)
		for _, id := range b.Members {
			if req.admits(s, id) {
				sc.elig = append(sc.elig, id)
			}
		}
		seed(nl+j, len(b.Members), b.MinID, lo)
	}
	if len(sc.elig) < m {
		return nil, req.tooFew(len(sc.elig))
	}

	metricOf := func(l int) float64 {
		if balanced {
			return linkFactor(s, l, req)
		}
		return s.AvailBW[l]
	}

	// Edges: usable links between loose vertices plus one activation edge
	// per group with a usable interior. A group with an unusable interior
	// never activates — exactly as its members stay isolated singletons
	// ungrouped.
	edges := sc.edges[:0]
	for l := 0; l < g.NumLinks(); l++ {
		if !req.linkUsable(s, l) {
			continue
		}
		lk := g.Link(l)
		a, b := lk.A, lk.B
		if gr != nil {
			if a, b = gr.vertex[a], gr.vertex[b]; a < 0 || b < 0 {
				continue // an access link, represented by its group's activation
			}
		}
		edges = append(edges, edge{metric: metricOf(l), a: int32(a), b: int32(b), link: int32(l)})
	}
	for j := range groups {
		if l := groups[j].Link; req.linkUsable(s, l) {
			edges = append(edges, edge{metric: metricOf(l), a: int32(nl + j), b: int32(gr.vertex[groups[j].Anchor]), link: int32(l)})
		}
	}
	// Ascending metric, ties in insertion order: ungrouped that is the
	// reference's (metric, link ID) removal order.
	slices.SortStableFunc(edges, func(x, y edge) int {
		switch {
		case x.metric < y.metric:
			return -1
		case x.metric > y.metric:
			return 1
		}
		return 0
	})
	// Reference round j (1..k) is the graph with tiers 1..j removed; round
	// 0 is the full usable graph, round k the edgeless one.
	tiers := sc.tiers[:0]
	for i := 0; i < len(edges); {
		j := i
		for j < len(edges) && edges[j].metric == edges[i].metric {
			j++
		}
		tiers = append(tiers, edges[i:j])
		i = j
	}
	sc.edges, sc.tiers = edges, tiers

	better := func(a, b int) bool {
		ca, cb := s.EffectiveCPU(a), s.EffectiveCPU(b)
		if ca != cb {
			return ca > cb
		}
		return a < b
	}
	// mergeTop merges two rank-ordered lists into sc.merged, keeping the
	// best m.
	mergeTop := func(x, y []int) []int {
		out := sc.merged[:0]
		want := min(len(x)+len(y), m)
		i, j := 0, 0
		for len(out) < want {
			if j == len(y) || (i < len(x) && better(x[i], y[j])) {
				out = append(out, x[i])
				i++
			} else {
				out = append(out, y[j])
				j++
			}
		}
		sc.merged = out
		return out
	}
	union := func(a, b int) (winner, loser int) {
		ra, rb := sc.find(a), sc.find(b)
		if ra == rb {
			return ra, -1
		}
		w, l := &verts[ra], &verts[rb]
		if w.size < l.size {
			ra, rb, w, l = rb, ra, l, w
		}
		l.parent = int32(ra)
		w.next, l.next = l.next, w.next
		w.size += l.size
		w.minID = min(w.minID, l.minID)
		w.eligCnt += l.eligCnt
		w.pinCnt += l.pinCnt
		// The merged list goes into a buffer the winner owns: its own, or
		// else the loser's, or else a fresh one.
		merged := mergeTop(w.top, l.top)
		switch {
		case w.own == nil && l.own != nil:
			w.own, l.own = l.own, nil
		case w.own == nil:
			w.own = sc.topBuf(m)
		}
		w.top = append(w.own[:0], merged...)
		l.top = nil
		return ra, rb
	}

	// record evaluates root's component as of reference round death. The
	// reference skips a component missing a pinned node (containsAll), and
	// with fewer than m eligible nodes every pool comes up short.
	recs := sc.recs[:0]
	record := func(root, death int) {
		v := &verts[root]
		if int(v.pinCnt) != len(pinned) || int(v.eligCnt) < m {
			return
		}
		if score, tag, ok := eval(root); ok {
			recs = append(recs, component{death: int32(death), minID: v.minID, tag: int32(tag), score: score})
			v.cur = int32(len(recs) - 1)
		}
	}

	// Round k: every node is its own component. Only M = 1 can select from
	// one (and runs ungrouped: a not-yet-activated group is no component).
	k := len(tiers)
	if m == 1 {
		for i := 0; i < nl; i++ {
			record(i, k)
		}
	}
	// Add tiers back in descending metric order; after absorbing tier t the
	// forest matches reference round t-1. States formed mid-tier are never
	// recorded — they are not components of any reference round.
	dirty := sc.dirty[:0]
	for t := k; t >= 1; t-- {
		dirty = dirty[:0]
		for _, e := range tiers[t-1] {
			winner, loser := union(int(e.a), int(e.b))
			if loser < 0 {
				continue // cycle edge: component unchanged
			}
			// Both pre-merge states die entering round t-1; they were last
			// alive at round t.
			for _, r := range [2]int{winner, loser} {
				if c := verts[r].cur; c >= 0 {
					recs[c].birth = int32(t)
					verts[r].cur = -1
				}
			}
			if verts[winner].dirtyTier != int32(t) {
				verts[winner].dirtyTier = int32(t)
				dirty = append(dirty, winner)
			}
		}
		for _, r := range dirty {
			if sc.find(r) != r {
				continue // absorbed by a later merge within the same tier
			}
			record(r, t-1)
		}
	}
	sc.recs, sc.dirty = recs, dirty
	return recs, nil
}

// winner returns the index of the record the reference loop would have
// kept, or -1 when there is none. The reference's winner is the first
// candidate, in (round ascending, component min-node-ID ascending, pool
// order) stream order, to strictly exceed the running best — the
// earliest-seen candidate achieving the global maximum. A component alive
// in rounds [birth, death] shows the same candidates at every one of those
// rounds, so its best candidate first appears at its birth round; the
// winner is therefore the maximum score, then the earliest birth, then the
// smallest min node ID. Two components with equal birth coexist at that
// round and are disjoint, hence have distinct min IDs; nested components
// have distinct births — the order is total.
func winner(recs []component) int {
	best := -1
	for i := range recs {
		if best < 0 {
			best = i
			continue
		}
		r, b := &recs[i], &recs[best]
		if r.score > b.score || (r.score == b.score && (r.birth < b.birth ||
			(r.birth == b.birth && r.minID < b.minID))) {
			best = i
		}
	}
	return best
}

// errNoComponent is the sweep's failure when no component ever qualifies.
func errNoComponent(m int) error {
	return fmt.Errorf("%w: no component provides %d connected eligible compute nodes", ErrNoFeasibleSet, m)
}

// Sweep runs the bottleneck sweep behind MaxBandwidth (balanced = false)
// and Balanced (balanced = true): it scores the best-CPU m nodes of every
// component the paper's edge deletion would visit and returns the set the
// literal loop would have returned, bit for bit — results, errors and,
// with an Options.Observer, the SweepStep sequence
// (TestFastPathEquivalence and FuzzSweepEquivalence hold it to
// referenceSweepSelect). gr optionally pre-merges interchangeable leaves;
// it changes the cost, never the answer, and is ignored where Applies is
// false. The paper-literal ablations change the enumeration itself and run
// the literal loop.
func Sweep(s *topology.Snapshot, req Request, opts Options, balanced bool, gr *Grouping) (Result, error) {
	if opts.PaperEarlyStop || opts.PaperSingleEdgeRemoval {
		return referenceSweepSelect(s, req, opts, balanced)
	}
	sc := getScratch()
	defer putScratch(sc)
	return sc.sweep(s, req, opts, balanced, gr)
}

// sweep is Sweep's default form on this scratch.
func (sc *scratch) sweep(s *topology.Snapshot, req Request, opts Options, balanced bool, gr *Grouping) (Result, error) {
	defer sc.reset()
	if !gr.Applies(s, req, opts) {
		gr = nil
	}

	// Inside the simple class a component's one candidate is its root's
	// merged top list. Pins and latency ceilings make the candidate pools
	// depend on member identity: those gather the members and share the
	// reference's own pool enumeration. Either way a record's tag is its
	// best candidate's index in the memo.
	byIdentity := len(req.Pinned) > 0 || req.MaxPairLatency > 0
	pinned := req.pinnedSet()
	priority := req.priority()
	pools := sc.pools[:0]
	recs, err := sc.enumerate(s, req, gr, balanced, func(root int) (float64, int, bool) {
		if !byIdentity {
			tag := sc.memo.eval(s, sc.topSet(root), req, balanced, priority)
			e := &sc.memo.evals[tag]
			return e.score, tag, e.keep
		}
		var pool []SweepCandidate
		var bestNodes []int
		best := math.Inf(-1)
		poolCandidates(s, sc.members(root), req, pinned, balanced, priority, &sc.memo,
			func(nodes []int, score float64, _ Result) {
				if opts.Observer != nil {
					pool = append(pool, SweepCandidate{Nodes: nodes, Score: score})
				}
				if bestNodes == nil || score > best {
					best, bestNodes = score, nodes
				}
			})
		if bestNodes == nil {
			return 0, 0, false
		}
		if opts.Observer != nil {
			pools = append(pools, pool)
		}
		return best, sc.memo.eval(s, bestNodes, req, balanced, priority), true
	})
	sc.pools = pools
	if err != nil {
		return Result{}, err
	}
	if opts.Observer != nil {
		sc.replaySweep(opts.Observer)
	}
	best := winner(recs)
	if best < 0 {
		return Result{}, errNoComponent(req.M)
	}
	return sc.memo.result(int(recs[best].tag)), nil
}

// replaySweep reconstructs the reference implementation's SweepStep
// sequence from the recorded component family of an ungrouped sweep. For
// each round 0..k the components alive at that round contribute their
// candidates in ascending min-node-ID order (the Components traversal
// order of the reference), and the Improved flag is recovered by replaying
// the running global best over the concatenated stream.
func (sc *scratch) replaySweep(observer func(SweepStep)) {
	recs, pools, tiers := sc.recs, sc.pools, sc.tiers
	order := sc.byMinID[:0]
	for i := range recs {
		order = append(order, i)
	}
	slices.SortFunc(order, func(i, j int) int { return int(recs[i].minID - recs[j].minID) })
	sc.byMinID = order

	runningBest, found := math.Inf(-1), false
	for round := 0; round <= len(tiers); round++ {
		step := SweepStep{Round: round}
		if round > 0 {
			tier := tiers[round-1]
			step.Threshold = tier[0].metric
			step.RemovedLinks = make([]int, len(tier))
			for i, e := range tier {
				step.RemovedLinks[i] = int(e.link)
			}
		}
		cands := sc.cands[:0]
		for _, i := range order {
			switch c := &recs[i]; {
			case int(c.birth) > round || round > int(c.death):
			case len(pools) > 0:
				cands = append(cands, pools[i]...)
			default:
				cands = append(cands, SweepCandidate{Nodes: sc.memo.result(int(c.tag)).Nodes, Score: c.score})
			}
		}
		sc.cands = cands
		if len(cands) > 0 {
			step.Candidates = slices.Clone(cands)
		}
		for _, c := range cands {
			if !found || c.Score > runningBest {
				runningBest, found = c.Score, true
				step.Improved = true
			}
		}
		observer(step)
	}
	clear(sc.cands[:cap(sc.cands)])
}

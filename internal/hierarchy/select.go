package hierarchy

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"nodeselect/internal/core"
	"nodeselect/internal/randx"
	"nodeselect/internal/reqtrace"
	"nodeselect/internal/topology"
)

// Path reports which implementation answered a hierarchy-routed request.
type Path string

const (
	// PathQuotient means the collapsed quotient sweep ran.
	PathQuotient Path = "quotient"
	// PathFallback means the request fell outside the quotient path's
	// proven-equivalent class and the flat core path answered instead.
	PathFallback Path = "fallback"
)

// Select runs cluster-first selection. When the request lies in the
// quotient path's exact-equivalence class — a bandwidth or balanced sweep,
// M ≥ 2, no pinned nodes, no latency ceiling, no observer or paper-literal
// ablation, and a partition with at least one cluster built over this
// graph — the collapsed sweep answers; anything else falls back to
// core.SelectOpt unchanged. Either way the caller gets exactly what the
// flat path would have returned.
//
// The snapshot must carry the same measurements the partition was built
// from (services guarantee this by caching partitions per measurement
// epoch); otherwise the cluster signatures no longer describe the network
// and the equivalence contract is void.
func Select(algo string, s *topology.Snapshot, p *Partition, req core.Request, src *randx.Source, opts core.Options) (core.Result, Path, error) {
	if !quotientApplies(algo, s, p, req, opts) {
		res, err := core.SelectOpt(algo, s, req, src, opts)
		return res, PathFallback, err
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	res, err := sc.quotientSelect(s, p, req, algo == core.AlgoBalanced)
	return res, PathQuotient, err
}

// SelectCtx is Select timed as a "hierarchy.sweep" span on the context's
// trace, recording which path answered.
func SelectCtx(ctx context.Context, algo string, s *topology.Snapshot, p *Partition, req core.Request, src *randx.Source, opts core.Options) (core.Result, Path, error) {
	span := reqtrace.StartChild(ctx, "hierarchy.sweep")
	defer span.End()
	span.SetAttr("algo", algo)
	res, path, err := Select(algo, s, p, req, src, opts)
	span.SetAttr("path", string(path))
	if err != nil {
		span.Fail(err)
	}
	return res, path, err
}

// quotientApplies gates the quotient sweep to the request class its
// equivalence argument covers (see DESIGN.md §15). Outside it the flat
// path is authoritative:
//
//   - only the sweep objectives collapse (compute/random/static have no
//     edge-deletion structure to exploit);
//   - M < 2 admits singleton components, which the quotient graph does
//     not track below cluster activation;
//   - pinned nodes and latency ceilings make candidate pools depend on
//     concrete member identity, not cluster rank order;
//   - observers and the paper-literal ablations are defined in terms of
//     the flat enumeration;
//   - and a partition from another graph (or with nothing collapsed)
//     offers no quotient to sweep.
func quotientApplies(algo string, s *topology.Snapshot, p *Partition, req core.Request, opts core.Options) bool {
	if p == nil || s == nil || p.g != s.Graph || len(p.bundles) == 0 {
		return false
	}
	if algo != core.AlgoBalanced && algo != core.AlgoBandwidth {
		return false
	}
	if req.M < 2 || len(req.Pinned) > 0 || req.MaxPairLatency > 0 {
		return false
	}
	if opts.Observer != nil || opts.PaperEarlyStop || opts.PaperSingleEdgeRemoval {
		return false
	}
	return true
}

// qedge is one quotient-graph edge: a usable backbone link, or a cluster
// activation (the single edge standing in for every access link of one
// bundle, at their shared metric).
type qedge struct {
	metric float64
	a, b   int // dense quotient vertex indices
}

// qvertex is one quotient vertex's union-find cell together with the
// component aggregates the sweep needs, which are valid at roots.
type qvertex struct {
	parent, size int
	// minID is the smallest node ID over every collapsed and backbone
	// node of the component; eligCnt counts its eligible compute nodes.
	minID, eligCnt int
	// top is the component's best ≤ m eligible nodes in rank order. It
	// aliases a bundle's member list or a backboneIDs slot until the
	// vertex wins a union; from then on it lives in own, a buffer of
	// capacity ≥ m the root keeps across further merges.
	top, own []int
	// cur is the index in recs of the record describing the root's
	// current component state, or -1; dirtyTier is the last tier whose
	// merges touched it.
	cur, dirtyTier int
}

// hrec is one recorded component of the quotient sweep's laminar family,
// mirroring the flat path's sweepComp; eval indexes the scratch's evals.
type hrec struct {
	birth, minID, eval int
}

// setEval memoizes the pure node-set evaluation, as the flat path does:
// consecutive components of the merge hierarchy usually re-select the same
// top-CPU set.
type setEval struct {
	res   core.Result
	score float64
	keep  bool
}

// scratch is one quotient sweep's working set. It is pooled, so a warmed
// select allocates little beyond the core.Results it scores and their memo
// keys; nothing in it outlives a request except capacity, and every field
// is re-initialised by the next one.
type scratch struct {
	verts []qvertex
	// free holds released own-buffers, each of capacity bufCap.
	free   [][]int
	bufCap int

	eligBuf []int // backing store for the bundles' filtered member lists
	edges   []qedge
	tiers   [][]qedge // equal-metric runs of edges, ascending
	recs    []hrec
	evals   []setEval
	memo    map[string]int // node-set key -> index into evals
	dirty   []int
	merged  []int  // mergeTop's output before it is copied to its owner
	nodes   []int  // a candidate set, sorted by ID
	key     []byte // its memo key
}

var scratchPool = sync.Pool{New: func() any { return &scratch{memo: make(map[string]int)} }}

// reset returns every owned top buffer to the free list and drops the
// references into the finished request's partition and results.
func (sc *scratch) reset() {
	for i := range sc.verts {
		if buf := sc.verts[i].own; buf != nil {
			sc.free = append(sc.free, buf)
		}
	}
	clear(sc.verts)
	clear(sc.evals)
	clear(sc.memo)
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

// quotientSelect is the collapsed form of core's fastSweepSelect. The
// quotient graph has one vertex per backbone node and one per bundle; a
// bundle's activation edge joins it to its anchor at the uniform metric of
// its access links. Because every access link of a bundle shares one
// metric value, the quotient tier value sequence equals the flat one, and
// with M ≥ 2 the flat sweep's sub-activation fragments (isolated members)
// can never record — so the recorded component family, with births, min
// IDs, candidate sets (merged per-cluster rank prefixes) and scores
// (core.Score over the graph's routes), matches the flat path's exactly.
func (sc *scratch) quotientSelect(s *topology.Snapshot, p *Partition, req core.Request, balanced bool) (core.Result, error) {
	g := s.Graph
	m := req.M
	defer sc.reset()

	// Per-request eligibility, mirroring core's request validation for
	// the gated class (no pins reach this path).
	eligNode := func(id int) bool {
		if req.Eligible != nil && !req.Eligible(id) {
			return false
		}
		if req.MinCPU > 0 && s.EffectiveCPU(id) < req.MinCPU {
			return false
		}
		if req.MinMemoryMB > 0 && g.Node(id).MemoryMB < req.MinMemoryMB {
			return false
		}
		return true
	}
	unconstrained := req.Eligible == nil && req.MinCPU <= 0 && req.MinMemoryMB <= 0

	// Quotient vertices: backbone nodes first, then bundles.
	nb := len(p.backboneIDs)
	nv := nb + len(p.bundles)
	sc.verts = slices.Grow(sc.verts[:0], nv)[:nv]
	if !unconstrained {
		sc.eligBuf = slices.Grow(sc.eligBuf[:0], p.CollapsedNodes()) // never regrown below: top lists alias it
	}
	verts := sc.verts
	eligTotal := 0
	for i, id := range p.backboneIDs {
		v := qvertex{parent: i, size: 1, minID: id, cur: -1, dirtyTier: -1}
		if g.Node(id).Kind == topology.Compute && eligNode(id) {
			v.eligCnt, v.top = 1, p.backboneIDs[i:i+1:i+1]
			eligTotal++
		}
		verts[i] = v
	}
	for j := range p.bundles {
		b := &p.bundles[j]
		// em is the bundle's eligible members in rank order — the
		// cluster's slice of the global topCPUNodes order.
		em := b.Members
		if !unconstrained {
			start := len(sc.eligBuf)
			for _, id := range b.Members {
				if eligNode(id) {
					sc.eligBuf = append(sc.eligBuf, id)
				}
			}
			em = sc.eligBuf[start:len(sc.eligBuf):len(sc.eligBuf)]
		}
		eligTotal += len(em)
		verts[nb+j] = qvertex{parent: nb + j, size: len(b.Members), minID: b.MinID,
			eligCnt: len(em), top: em[:min(len(em), m)], cur: -1, dirtyTier: -1}
	}
	if eligTotal < m {
		return core.Result{}, fmt.Errorf("%w: %d eligible, %d required", core.ErrTooFewNodes, eligTotal, m)
	}

	metricOf := func(l int) float64 {
		if balanced {
			return core.LinkFactor(s, l, req)
		}
		return s.AvailBW[l]
	}
	usable := func(l int) bool { return req.MinBW <= 0 || s.AvailBW[l] >= req.MinBW }

	// Quotient edges: usable backbone links plus one activation edge per
	// bundle with a usable interior. A bundle with an unusable interior
	// never activates — exactly as its members stay isolated singletons
	// in the flat sweep.
	edges := sc.edges[:0]
	for l := 0; l < g.NumLinks(); l++ {
		lk := g.Link(l)
		ai, bi := p.bidx[lk.A], p.bidx[lk.B]
		if ai < 0 || bi < 0 {
			continue // an access link, represented by its bundle's activation
		}
		if usable(l) {
			edges = append(edges, qedge{metric: metricOf(l), a: ai, b: bi})
		}
	}
	for j := range p.bundles {
		b := &p.bundles[j]
		if usable(b.Links[0]) {
			edges = append(edges, qedge{metric: metricOf(b.Links[0]), a: nb + j, b: p.bidx[b.Anchor]})
		}
	}
	// Ascending metric; ties keep insertion order (irrelevant to the
	// outcome — records happen only at tier boundaries — but stable).
	slices.SortStableFunc(edges, func(x, y qedge) int {
		switch {
		case x.metric < y.metric:
			return -1
		case x.metric > y.metric:
			return 1
		}
		return 0
	})
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

	find := func(x int) int {
		for verts[x].parent != x {
			verts[x].parent = verts[verts[x].parent].parent
			x = verts[x].parent
		}
		return x
	}
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
		ra, rb := find(a), find(b)
		if ra == rb {
			return ra, -1
		}
		w, l := &verts[ra], &verts[rb]
		if w.size < l.size {
			ra, rb, w, l = rb, ra, l, w
		}
		l.parent = ra
		w.size += l.size
		w.minID = min(w.minID, l.minID)
		w.eligCnt += l.eligCnt
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

	recs, evals := sc.recs[:0], sc.evals[:0]
	evaluate := func(root int) {
		v := &verts[root]
		if v.eligCnt < m {
			return // the flat path's pools all come up short too
		}
		sc.nodes = append(sc.nodes[:0], v.top...)
		slices.Sort(sc.nodes)
		sc.key = core.AppendNodeSetKey(sc.key[:0], sc.nodes)
		ei, ok := sc.memo[string(sc.key)] // no allocation: the key is materialised only on insert
		if !ok {
			e := setEval{res: core.Score(s, sc.nodes, req)}
			if req.MinBW <= 0 || e.res.PairMinBW >= req.MinBW {
				e.keep, e.score = true, e.res.PairMinBW
				if balanced {
					e.score = e.res.MinResource
				}
			}
			ei = len(evals)
			evals = append(evals, e)
			sc.memo[string(sc.key)] = ei
		}
		if !evals[ei].keep {
			return
		}
		recs = append(recs, hrec{minID: v.minID, eval: ei})
		v.cur = len(recs) - 1
	}

	// Add tiers back in descending metric order; after absorbing tier t
	// the forest matches flat round t-1. Round k (every quotient vertex
	// isolated) is skipped deliberately: in the flat sweep round k holds
	// only singleton nodes, which with M ≥ 2 can never record — and a
	// not-yet-activated bundle vertex is not a flat component at all, so
	// it must not be evaluated early.
	dirty := sc.dirty[:0]
	for t := len(tiers); t >= 1; t-- {
		dirty = dirty[:0]
		for _, e := range tiers[t-1] {
			winner, loser := union(e.a, e.b)
			if loser < 0 {
				continue // cycle edge: component unchanged
			}
			// Both pre-merge states die entering round t-1; they were
			// last alive at round t.
			for _, r := range [2]int{winner, loser} {
				if c := verts[r].cur; c >= 0 {
					recs[c].birth = t
					verts[r].cur = -1
				}
			}
			if verts[winner].dirtyTier != t {
				verts[winner].dirtyTier = t
				dirty = append(dirty, winner)
			}
		}
		for _, r := range dirty {
			if find(r) != r {
				continue // absorbed by a later merge within the same tier
			}
			evaluate(r)
		}
	}
	sc.recs, sc.evals, sc.dirty = recs, evals, dirty

	// The winner: maximum score, earliest birth round, smallest component
	// min node ID — the flat path's order.
	best := -1
	for i := range recs {
		if best < 0 {
			best = i
			continue
		}
		r, b := &recs[i], &recs[best]
		rs, bs := evals[r.eval].score, evals[b.eval].score
		if rs > bs || (rs == bs && (r.birth < b.birth ||
			(r.birth == b.birth && r.minID < b.minID))) {
			best = i
		}
	}
	if best < 0 {
		return core.Result{}, fmt.Errorf("%w: no component provides %d connected eligible compute nodes",
			core.ErrNoFeasibleSet, req.M)
	}
	return evals[recs[best].eval].res, nil
}

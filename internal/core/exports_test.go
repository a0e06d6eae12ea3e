package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"nodeselect/internal/topology"
)

// The memo indexes sets by a hash of their IDs, so a lookup must confirm the
// IDs against the arena and follow the chain on a mismatch: two sets forced
// under one hash keep their own evaluations, a repeated set finds its first
// one, and the one Nodes slice result hands out is a copy of the arena's.
func TestPoolMemoConfirmsAgainstArena(t *testing.T) {
	g := twoClusters(3, 10e6)
	s := topology.NewSnapshot(g)
	s.SetLoad(g.MustNode("n00"), 3)
	a := []int{g.MustNode("n00"), g.MustNode("n01")}
	b := []int{g.MustNode("n01"), g.MustNode("n04")}
	m := poolMemo{index: map[uint64]int32{}}
	eval := func(nodes []int) int { return m.eval(s, nodes, Request{M: 2}, true, 1) }

	ia := eval(a)
	m.index[hashNodes(b)] = int32(ia) // b now collides with a
	ib := eval(b)
	if ib == ia {
		t.Fatalf("set %v was answered with the evaluation of %v: the lookup trusted the hash", b, a)
	}
	if got := eval(b); got != ib {
		t.Fatalf("second lookup of %v = eval %d, want %d", b, got, ib)
	}
	m.index[hashNodes(a)] = int32(ib) // and a reaches its evaluation through b's chain
	if got := eval(a); got != ia {
		t.Fatalf("lookup of %v through the chain = eval %d, want %d", a, got, ia)
	}
	if len(m.evals) != 2 || len(m.arena) != 4 {
		t.Fatalf("memo holds %d evaluations over %d IDs, want 2 over 4", len(m.evals), len(m.arena))
	}
	for _, c := range []struct {
		set []int
		i   int
	}{{a, ia}, {b, ib}} {
		got := m.result(c.i)
		if want := Score(s, c.set, Request{M: 2}); !reflect.DeepEqual(got, want) {
			t.Fatalf("result(%v) = %+v, want Score's %+v", c.set, got, want)
		}
		got.Nodes[0] = -1
		if m.arena[m.evals[c.i].lo] == -1 {
			t.Fatalf("result(%v) handed out the arena itself", c.set)
		}
		if again := m.result(c.i); &again.Nodes[0] != &got.Nodes[0] {
			t.Fatalf("result(%v) cloned the set twice", c.set)
		}
	}
	m.reset()
	if len(m.index) != 0 || len(m.evals) != 0 || len(m.arena) != 0 {
		t.Fatalf("reset left %d index entries, %d evaluations, %d IDs", len(m.index), len(m.evals), len(m.arena))
	}
}

func TestLinkFactorAndPriority(t *testing.T) {
	g := twoClusters(2, 1e9)
	s := topology.NewSnapshot(g)
	backbone := g.NumLinks() - 1
	s.SetAvailBW(backbone, 250e6)
	if got := LinkFactor(s, backbone, Request{}); got != 0.25 {
		t.Fatalf("LinkFactor against own capacity = %v, want 0.25", got)
	}
	if got := LinkFactor(s, backbone, Request{RefCapacity: 100e6}); got != 2.5 {
		t.Fatalf("LinkFactor against a 100 Mbps reference = %v, want 2.5", got)
	}
	if got := (Request{}).Priority(); got != 1 {
		t.Fatalf("unset priority = %v, want 1", got)
	}
	if got := (Request{ComputePriority: 3}).Priority(); got != 3 {
		t.Fatalf("priority = %v, want 3", got)
	}
}

func TestBottleneckName(t *testing.T) {
	g := twoClusters(2, 10e6)
	s := topology.NewSnapshot(g)
	res := Score(s, []int{g.MustNode("n00"), g.MustNode("n02")}, Request{})
	if got := res.BottleneckName(g); got != "swA--swB" {
		t.Fatalf("BottleneckName = %q, want the backbone swA--swB", got)
	}
	if got := (Result{BottleneckLink: -1}).BottleneckName(g); got != "" {
		t.Fatalf("no bottleneck rendered as %q", got)
	}
}

// The traced wrappers return exactly what the functions they wrap return,
// on success and on failure.
func TestCtxWrappers(t *testing.T) {
	g := twoClusters(3, 10e6)
	s := topology.NewSnapshot(g)
	ctx := context.Background()

	want, err := SelectOpt(AlgoBalanced, s, Request{M: 3}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SelectCtx(ctx, AlgoBalanced, s, Request{M: 3}, nil, Options{})
	if err != nil || !equalSets(got.Nodes, want.Nodes) || got.MinResource != want.MinResource {
		t.Fatalf("SelectCtx = %+v, %v; want %+v", got, err, want)
	}
	if _, err := SelectCtx(ctx, AlgoBalanced, s, Request{M: 99}, nil, Options{}); !errors.Is(err, ErrTooFewNodes) {
		t.Fatalf("SelectCtx error = %v, want ErrTooFewNodes", err)
	}

	// A placement straddling a congested backbone should move into one
	// cluster.
	s.SetAvailBW(g.NumLinks()-1, 1e6)
	current := []int{g.MustNode("n00"), g.MustNode("n03")}
	adv, err := AdviseMigrationCtx(ctx, s, current, Request{M: 2}, MigrationPolicy{})
	if err != nil || !adv.Move {
		t.Fatalf("AdviseMigrationCtx = %+v, %v; want a move", adv, err)
	}
	if _, err := AdviseMigrationCtx(ctx, s, current, Request{M: 99}, MigrationPolicy{}); err == nil {
		t.Fatal("AdviseMigrationCtx: infeasible request did not fail")
	}
}

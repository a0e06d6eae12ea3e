package core

import (
	"context"
	"errors"
	"testing"

	"nodeselect/internal/topology"
)

// The memo key must be injective over sorted node sets — including IDs past
// one varint byte, where a non-self-delimiting encoding would let {1, 128}
// collide with another set — and must append to what dst already holds.
func TestAppendNodeSetKey(t *testing.T) {
	sets := [][]int{{}, {0}, {1}, {127}, {128}, {0, 128}, {1, 128}, {128, 129}, {16384}, {1, 2, 3}, {1, 2}, {300, 70000}}
	seen := map[string]int{}
	for i, set := range sets {
		key := string(AppendNodeSetKey(nil, set))
		if j, dup := seen[key]; dup {
			t.Fatalf("sets %v and %v share key %q", sets[j], set, key)
		}
		seen[key] = i
	}
	got := AppendNodeSetKey([]byte("x"), []int{5, 300})
	if want := "x" + string(AppendNodeSetKey(nil, []int{5, 300})); string(got) != want {
		t.Fatalf("append to non-empty dst = %q, want %q", got, want)
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

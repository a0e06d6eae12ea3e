package topology

import (
	"strings"
	"testing"
)

// line builds a path topology c0 - c1 - ... - c(n-1) of compute nodes with
// 100 Mbps links.
func line(n int) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.AddComputeNode(nodeName(i))
	}
	for i := 0; i+1 < n; i++ {
		g.Connect(i, i+1, 100e6, LinkOpts{})
	}
	return g
}

func nodeName(i int) string {
	return "c" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// star builds hub-and-spoke: one network node "sw" with n compute leaves.
func star(n int) *Graph {
	g := NewGraph()
	hub := g.AddNetworkNode("sw")
	for i := 0; i < n; i++ {
		leaf := g.AddComputeNode(nodeName(i))
		g.Connect(hub, leaf, 100e6, LinkOpts{})
	}
	return g
}

func TestAddNodesAndLinks(t *testing.T) {
	g := NewGraph()
	a := g.AddComputeNode("a")
	b := g.AddComputeNode("b")
	r := g.AddNetworkNode("r")
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	if g.NumComputeNodes() != 2 {
		t.Fatalf("NumComputeNodes = %d, want 2", g.NumComputeNodes())
	}
	l1 := g.Connect(a, r, 100e6, LinkOpts{Latency: 1e-4})
	l2 := g.ConnectNames("r", "b", 155e6, LinkOpts{FullDuplex: true})
	if g.NumLinks() != 2 {
		t.Fatalf("NumLinks = %d, want 2", g.NumLinks())
	}
	if g.Link(l1).Latency != 1e-4 {
		t.Error("link 1 latency lost")
	}
	if !g.Link(l2).FullDuplex {
		t.Error("link 2 duplex flag lost")
	}
	if g.Link(l2).Capacity != 155e6 {
		t.Error("link 2 capacity lost")
	}
	if got := g.Node(b).Name; got != "b" {
		t.Errorf("Node(b).Name = %q", got)
	}
	if g.Degree(r) != 2 {
		t.Errorf("Degree(r) = %d, want 2", g.Degree(r))
	}
}

func TestNodeByName(t *testing.T) {
	g := line(3)
	if g.NodeByName("c01") != 1 {
		t.Error("NodeByName failed")
	}
	if g.NodeByName("nope") != -1 {
		t.Error("NodeByName for missing name should be -1")
	}
	if g.MustNode("c02") != 2 {
		t.Error("MustNode failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNode on missing name did not panic")
		}
	}()
	g.MustNode("nope")
}

func TestDuplicateNamePanics(t *testing.T) {
	g := NewGraph()
	g.AddComputeNode("x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name did not panic")
		}
	}()
	g.AddComputeNode("x")
}

func TestBadLinkPanics(t *testing.T) {
	g := NewGraph()
	a := g.AddComputeNode("a")
	b := g.AddComputeNode("b")
	cases := []func(){
		func() { g.Connect(a, a, 1e6, LinkOpts{}) },            // self loop
		func() { g.Connect(a, b, 0, LinkOpts{}) },              // zero capacity
		func() { g.Connect(a, b, 1e6, LinkOpts{Latency: -1}) }, // negative latency
		func() { g.Connect(a, 99, 1e6, LinkOpts{}) },           // out of range
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad link case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestLinkOther(t *testing.T) {
	g := line(2)
	l := g.Link(0)
	if l.Other(0) != 1 || l.Other(1) != 0 {
		t.Fatal("Other returned wrong endpoint")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other with non-endpoint did not panic")
		}
	}()
	l.Other(5)
}

func TestComputeNodes(t *testing.T) {
	g := star(4)
	cn := g.ComputeNodes()
	if len(cn) != 4 {
		t.Fatalf("ComputeNodes returned %d, want 4", len(cn))
	}
	for _, id := range cn {
		if g.Node(id).Kind != Compute {
			t.Fatal("ComputeNodes returned a network node")
		}
	}
	// Sized before it is filled: one allocation however many nodes (append
	// doubling made about a dozen for 600 nodes, ≈ 250 KB of them for 10k).
	big := star(600)
	if avg := testing.AllocsPerRun(10, func() { cn = big.ComputeNodes() }); avg != 1 || len(cn) != 600 || cap(cn) != 600 {
		t.Fatalf("ComputeNodes on 600 nodes: %.0f allocations, len %d cap %d; want 1, 600, 600", avg, len(cn), cap(cn))
	}
}

func TestValidate(t *testing.T) {
	if err := line(4).Validate(); err != nil {
		t.Errorf("line(4) invalid: %v", err)
	}
	empty := NewGraph()
	if err := empty.Validate(); err == nil {
		t.Error("empty graph validated")
	}
	onlyRouters := NewGraph()
	onlyRouters.AddNetworkNode("r")
	if err := onlyRouters.Validate(); err == nil {
		t.Error("router-only graph validated")
	}
	disconnected := NewGraph()
	disconnected.AddComputeNode("a")
	disconnected.AddComputeNode("b")
	if err := disconnected.Validate(); err == nil {
		t.Error("disconnected graph validated")
	}
}

func TestIsTree(t *testing.T) {
	if !line(5).IsTree() {
		t.Error("line(5) should be a tree")
	}
	if !star(6).IsTree() {
		t.Error("star(6) should be a tree")
	}
	g := line(4)
	g.Connect(0, 3, 100e6, LinkOpts{}) // close the cycle
	if g.IsTree() {
		t.Error("cycle graph reported as tree")
	}
	disc := NewGraph()
	disc.AddComputeNode("a")
	disc.AddComputeNode("b")
	if disc.IsTree() {
		t.Error("disconnected graph reported as tree")
	}
}

func TestNodeKindString(t *testing.T) {
	if Compute.String() != "compute" || Network.String() != "network" {
		t.Error("NodeKind.String wrong")
	}
	if NodeKind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestSortedNames(t *testing.T) {
	g := NewGraph()
	g.AddComputeNode("zeta")
	g.AddComputeNode("alpha")
	names := g.SortedNames()
	if names[0] != "alpha" || names[1] != "zeta" {
		t.Errorf("SortedNames = %v", names)
	}
}

func TestGraphString(t *testing.T) {
	s := line(3).String()
	if !strings.Contains(s, "3 nodes") || !strings.Contains(s, "2 links") {
		t.Errorf("String() = %q", s)
	}
}

func TestSpeedAndArch(t *testing.T) {
	g := NewGraph()
	id := g.AddComputeNodeSpec("fast", 2.5, "alpha")
	if g.Node(id).Speed != 2.5 || g.Node(id).Arch != "alpha" {
		t.Error("speed/arch lost")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero speed did not panic")
		}
	}()
	g.AddComputeNodeSpec("bad", 0, "")
}

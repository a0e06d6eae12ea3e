package selectsvc

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"nodeselect/internal/lease"
	"nodeselect/internal/remos"
	"nodeselect/internal/testbed"
	"nodeselect/internal/topology"
)

// newHierPair builds two services over identical two-tier cluster sources
// with identical conditions — one answering plain sweeps hierarchically,
// one flat — so responses can be compared field by field.
func newHierPair(t *testing.T) (hier, flat *Service, g *topology.Graph) {
	t.Helper()
	build := func(hierOn bool) (*Service, *topology.Graph) {
		g := testbed.MultiCluster(4, 6, testbed.Ethernet100, 1e9)
		src := remos.NewStaticSource(g)
		for c := 1; c <= 4; c++ {
			src.SetLoad(g.MustNode("c"+string(rune('0'+c))+"-n1"), 2.5)
		}
		src.SetUsedBW(g.Incident(g.MustNode("sw-2"))[0], 800e6)
		svc := New(src, Config{DefaultMode: remos.Current, Seed: 1, Hierarchy: hierOn})
		if err := svc.Poll(); err != nil {
			t.Fatal(err)
		}
		src.Advance(2)
		if err := svc.Poll(); err != nil {
			t.Fatal(err)
		}
		return svc, g
	}
	hier, g = build(true)
	flat, _ = build(false)
	return hier, flat, g
}

func latestDecision(t *testing.T, svc *Service) Decision {
	t.Helper()
	w := do(t, svc.Handler(), "GET", "/decisions", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("decisions status %d: %s", w.Code, w.Body)
	}
	var ds []Decision
	if err := json.Unmarshal(w.Body.Bytes(), &ds); err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 {
		t.Fatal("no decisions recorded")
	}
	return ds[len(ds)-1]
}

// TestHierarchySelectEquivalence drives the wired path end to end: a plain
// sweep select on a hierarchical service answers via the quotient path with
// exactly the flat service's placement, and the audit entry says so.
func TestHierarchySelectEquivalence(t *testing.T) {
	hier, flat, _ := newHierPair(t)
	for _, algo := range []string{"balanced", "bandwidth"} {
		req := SelectRequest{M: 5, Algo: algo}
		hw := do(t, hier.Handler(), "POST", "/select", req)
		fw := do(t, flat.Handler(), "POST", "/select", req)
		if hw.Code != http.StatusOK || fw.Code != http.StatusOK {
			t.Fatalf("%s: status hier=%d flat=%d: %s / %s", algo, hw.Code, fw.Code, hw.Body, fw.Body)
		}
		var hresp, fresp SelectResponse
		if err := json.Unmarshal(hw.Body.Bytes(), &hresp); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(fw.Body.Bytes(), &fresp); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(hresp.Nodes, fresp.Nodes) ||
			hresp.MinCPU != fresp.MinCPU ||
			hresp.PairMinBW != fresp.PairMinBW ||
			hresp.MinResource != fresp.MinResource {
			t.Fatalf("%s: divergence:\nhier: %+v\nflat: %+v", algo, hresp, fresp)
		}
		d := latestDecision(t, hier)
		if d.Hierarchy != "quotient" {
			t.Fatalf("%s: decision hierarchy = %q, want quotient", algo, d.Hierarchy)
		}
		if fd := latestDecision(t, flat); fd.Hierarchy != "" {
			t.Fatalf("%s: flat decision carries hierarchy %q", algo, fd.Hierarchy)
		}
	}
	if got := hier.metrics.hierRequests.With("quotient").Value(); got != 2 {
		t.Fatalf("quotient request count = %v, want 2", got)
	}
	if got := hier.metrics.hierClusters.Value(); got != 4 {
		t.Fatalf("clusters gauge = %v, want 4", got)
	}
	if got := hier.metrics.hierCollapsed.Value(); got != 24 {
		t.Fatalf("collapsed gauge = %v, want 24", got)
	}
}

// TestHierarchyFallbackAudited checks an out-of-class request (pinned
// node) is answered by the flat fallback — same result, audited as such.
func TestHierarchyFallbackAudited(t *testing.T) {
	hier, flat, _ := newHierPair(t)
	req := SelectRequest{M: 3, Algo: "balanced", Pin: []string{"c2-n3"}}
	hw := do(t, hier.Handler(), "POST", "/select", req)
	fw := do(t, flat.Handler(), "POST", "/select", req)
	if hw.Code != http.StatusOK || fw.Code != http.StatusOK {
		t.Fatalf("status hier=%d flat=%d", hw.Code, fw.Code)
	}
	var hresp, fresp SelectResponse
	if err := json.Unmarshal(hw.Body.Bytes(), &hresp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fw.Body.Bytes(), &fresp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hresp.Nodes, fresp.Nodes) {
		t.Fatalf("fallback divergence: hier %v flat %v", hresp.Nodes, fresp.Nodes)
	}
	if d := latestDecision(t, hier); d.Hierarchy != "fallback" {
		t.Fatalf("decision hierarchy = %q, want fallback", d.Hierarchy)
	}
	if got := hier.metrics.hierRequests.With("fallback").Value(); got != 1 {
		t.Fatalf("fallback request count = %v, want 1", got)
	}
}

// TestHierarchyPartitionEpochCache pins the partition cache contract: one
// build per (snapshot, ledger) epoch — identical and differing requests
// within an epoch share it, a poll or a lease commit invalidates it.
func TestHierarchyPartitionEpochCache(t *testing.T) {
	hier, _, _ := newHierPair(t)
	h := hier.Handler()
	builds := func() float64 { return hier.metrics.hierPartitionBuilds.Value() }

	do(t, h, "POST", "/select", SelectRequest{M: 4, Algo: "balanced"})
	if got := builds(); got != 1 {
		t.Fatalf("builds after first select = %v, want 1", got)
	}
	// Same epoch: a cached plan (same request) and a fresh plan
	// (different M) both reuse the partition.
	do(t, h, "POST", "/select", SelectRequest{M: 4, Algo: "balanced"})
	do(t, h, "POST", "/select", SelectRequest{M: 6, Algo: "balanced"})
	if got := builds(); got != 1 {
		t.Fatalf("builds within epoch = %v, want 1", got)
	}
	// A lease commit bumps the ledger version: next select rebuilds over
	// the new residual view.
	w := do(t, h, "POST", "/select", SelectRequest{M: 2, Algo: "balanced", LeaseTTL: 60,
		Demand: &lease.Demand{CPU: 0.2, BW: 5e6}})
	if w.Code != http.StatusOK {
		t.Fatalf("lease select status %d: %s", w.Code, w.Body)
	}
	do(t, h, "POST", "/select", SelectRequest{M: 4, Algo: "balanced"})
	if got := builds(); got != 2 {
		t.Fatalf("builds after lease commit = %v, want 2", got)
	}
	// A new poll moves the snapshot epoch.
	if err := hier.Poll(); err != nil {
		t.Fatal(err)
	}
	do(t, h, "POST", "/select", SelectRequest{M: 4, Algo: "balanced"})
	if got := builds(); got != 3 {
		t.Fatalf("builds after poll = %v, want 3", got)
	}
}

// TestHierarchyPartitionKeyedOnMode is the regression for two query modes
// sharing one partition within an epoch: the partition ranks each cluster's
// members by the CPU of the snapshot it was built from, so a window-mode
// build (n2 still loaded on average) handed to a current-mode select (n2
// now idle) hides the best node of every cluster. Each mode gets the
// partition of its own snapshot, and both answer what a flat service does.
func TestHierarchyPartitionKeyedOnMode(t *testing.T) {
	build := func(hierOn bool) *Service {
		g := testbed.MultiCluster(4, 6, testbed.Ethernet100, 1e9)
		src := remos.NewStaticSource(g)
		node := func(c, n int) int { return g.MustNode(fmt.Sprintf("c%d-n%d", c, n)) }
		for c := 1; c <= 4; c++ {
			src.SetLoad(node(c, 1), 2.5)
			src.SetLoad(node(c, 2), 6)
		}
		svc := New(src, Config{DefaultMode: remos.Window, Seed: 1, Hierarchy: hierOn})
		if err := svc.Poll(); err != nil {
			t.Fatal(err)
		}
		src.Advance(2)
		for c := 1; c <= 4; c++ {
			src.SetLoad(node(c, 2), 0)
			for n := 3; n <= 6; n++ {
				src.SetLoad(node(c, n), 1)
			}
		}
		if err := svc.Poll(); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	hier, flat := build(true), build(false)
	for _, mode := range []string{"window", "current"} {
		req := SelectRequest{M: 3, Algo: "balanced", Mode: mode}
		var hresp, fresp SelectResponse
		for svc, resp := range map[*Service]*SelectResponse{hier: &hresp, flat: &fresp} {
			w := do(t, svc.Handler(), "POST", "/select", req)
			if w.Code != http.StatusOK {
				t.Fatalf("mode %s: status %d: %s", mode, w.Code, w.Body)
			}
			if err := json.Unmarshal(w.Body.Bytes(), resp); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(hresp.Nodes, fresp.Nodes) || hresp.MinResource != fresp.MinResource {
			t.Fatalf("mode %s: hierarchical %v (min_resource %v), flat %v (%v)",
				mode, hresp.Nodes, hresp.MinResource, fresp.Nodes, fresp.MinResource)
		}
		if d := latestDecision(t, hier); d.Hierarchy != "quotient" {
			t.Fatalf("mode %s: decision hierarchy = %q, want quotient", mode, d.Hierarchy)
		}
	}
	if got := hier.metrics.hierPartitionBuilds.Value(); got != 2 {
		t.Fatalf("partition builds = %v, want one per mode", got)
	}
}

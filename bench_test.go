// Package repro_test holds the wall-clock benchmarks of the paper's
// algorithms and of the experiments that reproduce its evaluation. The
// simulated numbers themselves are pinned by the goldens of
// internal/experiment (TestPaperGolden), not reported here:
//
//	BenchmarkFig2MaxBandwidth*          — Figure 2 algorithm cost scaling
//	BenchmarkFig3Balanced*              — Figure 3 algorithm cost scaling
//	BenchmarkServiceSelect200*          — the placement service under load
//	BenchmarkTable1Full                 — the entire Table 1 grid
//	BenchmarkAblation* / BenchmarkSweep* — the ablations and §4.4 sweeps
//
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"nodeselect/internal/core"
	"nodeselect/internal/experiment"
	"nodeselect/internal/randx"
	"nodeselect/internal/remos"
	"nodeselect/internal/selectsvc"
	"nodeselect/internal/testbed"
	"nodeselect/internal/topology"
)

// benchConfig keeps benchmark iterations affordable: one replication per
// cell (the -reps flag of cmd/expt produces the statistically reduced
// numbers recorded in EXPERIMENTS.md).
func benchConfig() experiment.Config {
	cfg := experiment.Default()
	cfg.Replications = 1
	return cfg
}

func BenchmarkTable1Full(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		rows, err := experiment.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("short table")
		}
	}
}

// selectionSnapshot builds a loaded random tree of n compute nodes for
// algorithm-cost benchmarks.
func selectionSnapshot(n int) *topology.Snapshot {
	src := randx.New(int64(n))
	g := testbed.RandomTree(src, n, []float64{testbed.Ethernet100, testbed.ATM155})
	s := topology.NewSnapshot(g)
	for i := 0; i < g.NumNodes(); i++ {
		s.SetLoad(i, src.Float64()*4)
	}
	for l := 0; l < g.NumLinks(); l++ {
		s.SetAvailBW(l, src.Float64()*g.Link(l).Capacity)
	}
	g.Routes() // pre-build routing so benches measure selection only
	return s
}

func benchSelection(b *testing.B, n int, algo string) {
	s := selectionSnapshot(n)
	req := core.Request{M: n / 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Select(algo, s, req, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2MaxBandwidth50(b *testing.B)  { benchSelection(b, 50, core.AlgoBandwidth) }
func BenchmarkFig2MaxBandwidth100(b *testing.B) { benchSelection(b, 100, core.AlgoBandwidth) }
func BenchmarkFig2MaxBandwidth200(b *testing.B) { benchSelection(b, 200, core.AlgoBandwidth) }
func BenchmarkFig2MaxBandwidth400(b *testing.B) { benchSelection(b, 400, core.AlgoBandwidth) }

func BenchmarkFig3Balanced50(b *testing.B)  { benchSelection(b, 50, core.AlgoBalanced) }
func BenchmarkFig3Balanced100(b *testing.B) { benchSelection(b, 100, core.AlgoBalanced) }
func BenchmarkFig3Balanced200(b *testing.B) { benchSelection(b, 200, core.AlgoBalanced) }
func BenchmarkFig3Balanced400(b *testing.B) { benchSelection(b, 400, core.AlgoBalanced) }

// benchServiceSelect measures the whole service stack under concurrent
// load: parallel clients POSTing the same /select shape against a 200-node
// loaded tree. With the plan cache on (size 0 → default), all requests
// after the first are singleflighted hits; with it off (-1), every request
// recomputes the full selection sweep.
func benchServiceSelect(b *testing.B, cacheSize int, traceOff bool) {
	src, err := remos.FromSnapshot(selectionSnapshot(200))
	if err != nil {
		b.Fatal(err)
	}
	cfg := selectsvc.Config{
		Seed:          1,
		DefaultMode:   remos.Current,
		PlanCacheSize: cacheSize,
	}
	cfg.Trace.Disabled = traceOff
	svc := selectsvc.New(src, cfg)
	if err := svc.Poll(); err != nil {
		b.Fatal(err)
	}
	h := svc.Handler()
	body, err := json.Marshal(selectsvc.SelectRequest{M: 50, Algo: "bandwidth"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r := httptest.NewRequest("POST", "/select", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			if rec.Code != http.StatusOK {
				b.Errorf("select: status %d: %s", rec.Code, rec.Body.String())
				return
			}
		}
	})
}

func BenchmarkServiceSelect200Cached(b *testing.B)   { benchServiceSelect(b, 0, false) }
func BenchmarkServiceSelect200Uncached(b *testing.B) { benchServiceSelect(b, -1, false) }

// The NoTrace variant pins the request-tracing overhead on the hot cached
// path: Cached vs CachedNoTrace differ only in reqtrace span capture and
// tail sampling (the X-Request-ID middleware runs in both).
func BenchmarkServiceSelect200CachedNoTrace(b *testing.B) { benchServiceSelect(b, 0, true) }

func BenchmarkAblationAlgorithms(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		cells, err := experiment.RunAlgorithmAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != len(core.Algorithms()) {
			b.Fatal("short ablation")
		}
	}
}

func BenchmarkAblationQueryModes(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		cells, err := experiment.RunModeAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 4 {
			b.Fatal("short mode ablation")
		}
	}
}

func BenchmarkAblationPattern(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		cells, err := experiment.RunPatternAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 2 {
			b.Fatal("short pattern ablation")
		}
	}
}

func BenchmarkSweepLoad(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := experiment.RunLoadSweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepTraffic(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := experiment.RunTrafficSweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepPollingPeriod(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := experiment.RunPeriodSweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

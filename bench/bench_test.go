package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, other := schedule(w, 7, 500), schedule(w, 7, 500), schedule(w, 8, 500)
		same := true
		for i := range a {
			if a[i].due != b[i].due || a[i].class != b[i].class || !bytes.Equal(a[i].body, b[i].body) ||
				a[i].want != b[i].want || a[i].renew != b[i].renew {
				t.Fatalf("%s: request %d differs between two draws of seed 7", w.name, i)
			}
			if a[i].due != other[i].due || !bytes.Equal(a[i].body, other[i].body) {
				same = false
			}
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 drew the same schedule", w.name)
		}
		inA, err := makeInputs(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		inB, _ := makeInputs(w, 7)
		if !bytes.Equal(inA.doc, inB.doc) {
			t.Errorf("%s: topology document differs between two draws of seed 7", w.name)
		}
	}
}

func TestScheduleFollowsRateAndMix(t *testing.T) {
	w, _ := workloadByName("fig4_advisory")
	reqs := schedule(w, 3, 20000)
	got := map[string]float64{}
	keys := map[string]bool{}
	for _, r := range reqs {
		got[r.class] += 1 / float64(len(reqs))
		if r.class == advDistinct {
			if keys[string(r.body)] {
				t.Fatalf("adv_distinct body repeats: %s", r.body)
			}
			keys[string(r.body)] = true
		}
	}
	for _, p := range w.mix {
		if math.Abs(got[p.class]-p.share) > 0.02 {
			t.Errorf("class %s is %.3f of the stream, want %.2f", p.class, got[p.class], p.share)
		}
	}
	if rate := float64(len(reqs)) / reqs[len(reqs)-1].due.Seconds(); math.Abs(rate-w.rate)/w.rate > 0.03 {
		t.Errorf("arrival rate %.1f/s, want %.0f/s", rate, w.rate)
	}
}

// A server that stalls must lift the latency of every request due during
// the stall (no coordinated omission), while the generator's own lateness
// stays out of the latency.
func TestLatencyChargesBacklogNotOvershoot(t *testing.T) {
	const stall = 200 * time.Millisecond
	var gate sync.Mutex
	var served atomic.Int64
	var stallFrom, stallTo atomic.Int64 // ns since t0
	t0 := time.Now()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gate.Lock()
		if served.Add(1) == 20 {
			stallFrom.Store(int64(time.Since(t0)))
			time.Sleep(stall)
			stallTo.Store(int64(time.Since(t0)))
		}
		gate.Unlock()
		w.Write([]byte(`{"nodes":["n1"]}`))
	}))
	defer srv.Close()

	w := workload{name: "stall", rate: 200, mix: []mixPart{{advDistinct, 1}}, mLo: 1, mHi: 1, limit: time.Second}
	in := &inputs{compute: map[string]bool{"n1": true}}
	reqs := schedule(w, 1, 120)
	d := newDriver(w, in, strings.TrimPrefix(srv.URL, "http://"), 2, reqs)
	d.t0 = t0
	d.runOpen(reqs[len(reqs)-1].due+time.Millisecond, func(time.Duration) int { return phaseOpen }, nil)

	from, to := time.Duration(stallFrom.Load()), time.Duration(stallTo.Load())
	if to == 0 {
		t.Fatal("the server never stalled")
	}
	during := 0
	for _, s := range d.samples {
		if !s.ok {
			t.Fatalf("request failed: %s", s.why)
		}
		if s.latency() != s.ttfb+s.read+s.wait {
			t.Fatalf("latency %v is not service %v + wait %v", s.latency(), s.service(), s.wait)
		}
		// Due while both connections were stuck behind the stall (the
		// first few due after it began still found a free connection).
		if s.due > from+20*time.Millisecond && s.due < to-20*time.Millisecond {
			during++
			if floor := to - s.due - 5*time.Millisecond; s.latency() < floor {
				t.Errorf("request due %v into a stall ending at %v has latency %v, want at least %v",
					s.due, to, s.latency(), floor)
			}
		}
		if s.due < from-50*time.Millisecond && s.latency() > stall/2 {
			t.Errorf("request due %v, before the stall at %v, has latency %v", s.due, from, s.latency())
		}
	}
	if during < 10 {
		t.Fatalf("only %d requests fell due during the stall; the test needs more", during)
	}
	if d.unsent != 0 || len(d.samples) != len(reqs) {
		t.Errorf("sent %d of %d requests, %d unsent", len(d.samples), len(reqs), d.unsent)
	}
}

func TestWindowArithmetic(t *testing.T) {
	sec := time.Second
	// Three one-second windows: latencies 1..100 ms, 2..200 ms, 3..300 ms.
	var due []time.Duration
	var lat []float64
	for w := 0; w < 3; w++ {
		for i := 1; i <= 100; i++ {
			due = append(due, 10*sec+time.Duration(w)*sec+time.Duration(i)*9*time.Millisecond)
			lat = append(lat, float64((w+1)*i))
		}
	}
	due, lat = append(due, 9*sec, 13*sec), append(lat, 1e6, 1e6) // outside: ignored
	if got := perWindow(due, lat, 10*sec, 3*sec, 3, 0.99); len(got) != 3 || got[0] != 99 || got[1] != 198 || got[2] != 297 {
		t.Errorf("per-window p99 = %v, want [99 198 297]", got)
	}
	if got := perWindow(due, lat, 10*sec, 3*sec, 3, 0.50); got[0] != 50 || got[2] != 150 {
		t.Errorf("per-window p50 = %v, want [50 100 150]", got)
	}
	if got := quietest([]float64{5, 1, 9}, false); got != 1 {
		t.Errorf("quietest of 3 latencies = %v, want the lowest", got)
	}
	fifteen := rand.New(rand.NewSource(1)).Perm(15)
	vals := make([]float64, 15)
	for i, v := range fifteen {
		vals[i] = float64(v + 1)
	}
	if lo, hi := quietest(vals, false), quietest(vals, true); lo != 4 || hi != 12 {
		t.Errorf("quietest of 1..15 = %v (lower better), %v (higher better), want 4 and 12", lo, hi)
	}
	rates := perWindowRate([]time.Duration{0, 100 * time.Millisecond, 600 * time.Millisecond, sec}, sec, 2)
	if rates[0] != 4 || rates[1] != 2 {
		t.Errorf("per-window rates = %v, want [4 2] per second", rates)
	}
	if got := percentile([]float64{1, 2, 3, 4}, 0.5); got != 2 {
		t.Errorf("nearest-rank median of 1..4 = %v, want 2", got)
	}
	if share(1, 0) != 0 || share(1, 4) != 0.25 {
		t.Error("share arithmetic is off")
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	med, q1, q3, spread := quartileSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if med != 5.5 || q1 != 2.75 || q3 != 8.25 || spread != 1 {
		t.Errorf("quartiles of 1..10 = %v %v %v spread %v, want 5.5 2.75 8.25 1", med, q1, q3, spread)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"same", []float64{101, 100, 99, 100, 101}, false, "ok"},
		{"slower", []float64{120, 121, 119, 120, 122}, false, "regressed"},
		{"faster", []float64{80, 81, 79, 80, 82}, false, "ok"},
		{"less throughput", []float64{80, 81, 79, 80, 82}, true, "regressed"},
		{"noisy", []float64{70, 100, 130, 95, 160}, false, "unresolved (spread > bound)"},
		{"noisy but all better", []float64{40, 60, 80, 50, 70}, false, "ok"},
	} {
		if got, _ := verdict(steady, tc.b, tc.higher, 0.10); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// The one test that spawns the real binaries: a smoke run of fig4_advisory
// (remosd fleet, selectd over TCP agents, every check on).
func TestSmokeRunOnRealBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns selectd and remosd")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bins, err := buildBinaries(root)
	if err != nil {
		t.Fatal(err)
	}
	if !bins.hasFlag("listen") || bins.hasFlag("no-such-flag") {
		t.Errorf("flag detection is off; usage:\n%s", bins.selectdUsage)
	}
	t.Cleanup(started.killAll)
	e := &env{root: root, bins: bins, rng: rand.New(rand.NewSource(1)), nconn: 2, scratch: t.TempDir()}
	w, _ := workloadByName("fig4_advisory")
	res, err := runEndToEnd(e, w, 1, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct || res.failed != 0 {
		t.Errorf("smoke run not correct: %d failed, %v", res.failed, res.failures)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range bf.EndToEnd {
		if v, ok := res.metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
			t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", m.Name, v, m.Unit)
		}
	}
	if len(res.metrics) != len(bf.EndToEnd) {
		t.Errorf("run reported %d metrics, BENCHMARK.json lists %d", len(res.metrics), len(bf.EndToEnd))
	}
	if _, err := os.Stat(bins.selectd); err != nil {
		t.Error(err)
	}
}

// BENCHMARK.json and the code must name the same workloads and per-layer
// metrics.
func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(root + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, bf.Workloads[i].Name, w.name)
		}
	}
	listed := map[string]string{}
	for _, m := range bf.PerLayer {
		listed[m.Name] = m.Unit
	}
	for name, unit := range perLayerUnits {
		if listed[name] != unit {
			t.Errorf("per-layer metric %s: unit %q in BENCHMARK.json, %q in the code", name, listed[name], unit)
		}
	}
	if len(listed) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the code reports %d", len(listed), len(perLayerUnits))
	}
}

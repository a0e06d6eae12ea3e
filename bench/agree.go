package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// gated is one end-to-end metric of BENCHMARK.json.
type gated struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the tools read.
type benchmarkFile struct {
	EndToEnd []gated `json:"end_to_end"`
}

// ungatedTimings are the timing metrics an untraced run keeps in its info.
// The tools set them beside the gated ones, against the contract's widest
// bound, for a reader; the pipeline does not gate on them.
var ungatedTimings = []gated{
	{Name: "select_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "select_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_rps", Unit: "req/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_req", Unit: "ms", Better: "lower", Bound: 0.25},
}

// rows lists what the tools print: the gated metrics, then the timings.
func (b benchmarkFile) rows() []gated {
	return append(append([]gated(nil), b.EndToEnd...), ungatedTimings...)
}

func readBenchmarkFile(root string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return b, err
	}
	return b, json.Unmarshal(data, &b)
}

// readRuns loads a result file and groups the comparable untraced runs'
// values by workload and metric (the ungated timings among them).
func readRuns(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string][]float64{}
	for _, r := range recs {
		if r.Trace || r.NonComparable {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
		for _, t := range ungatedTimings {
			if v, ok := r.Info[t.Name]; ok {
				out[r.Workload][t.Name] = append(out[r.Workload][t.Name], v)
			}
		}
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// verdict compares side b with side a for one metric: regressed when b's
// median is worse than a's by more than the bound, unresolved when either
// side's own quartile spread is wider than the bound (so the bound cannot
// be told from noise) unless every run of b reads better than every run of
// a, ok otherwise.
func verdict(a, b []float64, higherIsBetter bool, bound float64) (string, float64) {
	medA, _, _, spreadA := quartileSpread(a)
	medB, _, _, spreadB := quartileSpread(b)
	worse := 0.0
	if medA != 0 {
		worse = (medB - medA) / medA
		if higherIsBetter {
			worse = -worse
		}
	}
	if spreadA > bound || spreadB > bound {
		sa, sb := sortedCopy(a), sortedCopy(b)
		allBetter := sb[len(sb)-1] < sa[0]
		if higherIsBetter {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if !allBetter {
			return "unresolved (spread > bound)", worse
		}
	}
	if worse > bound {
		return "regressed", worse
	}
	return "ok", worse
}

func isGated(bf benchmarkFile, name string) bool {
	for _, m := range bf.EndToEnd {
		if m.Name == name {
			return true
		}
	}
	return false
}

// agreeMain prints one row per workload and metric and returns 1 if a gated
// row regressed.
func agreeMain(root, pathA, pathB string) int {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := readRuns(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := readRuns(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	fmt.Printf("%-16s %-16s %12s %12s %9s %7s  %s\n", "workload", "metric", "median a", "median b", "worse by", "bound", "verdict")
	for _, wl := range sortedKeys(a) {
		for _, m := range bf.rows() {
			va, vb := a[wl][m.Name], b[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worse := verdict(va, vb, m.Better == "higher", m.Bound)
			if v == "regressed" && isGated(bf, m.Name) {
				code = 1
			}
			fmt.Printf("%-16s %-16s %12.5g %12.5g %8.1f%% %6.0f%%  %s (%d vs %d runs)\n",
				wl, m.Name, median(va), median(vb), 100*worse, 100*m.Bound, v, len(va), len(vb))
		}
	}
	return code
}

// spreadMain prints, per workload and metric, the median, quartiles and
// quartile spread over a result file's runs, beside the metric's bound.
func spreadMain(root, path string) int {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	runs, err := readRuns(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("%-16s %-16s %5s %12s %12s %12s %8s %7s\n", "workload", "metric", "runs", "median", "q1", "q3", "spread", "bound")
	for _, wl := range sortedKeys(runs) {
		for _, m := range bf.rows() {
			v := runs[wl][m.Name]
			if len(v) == 0 {
				continue
			}
			med, q1, q3, sp := quartileSpread(v)
			fmt.Printf("%-16s %-16s %5d %12.5g %12.5g %12.5g %7.1f%% %6.0f%%\n",
				wl, m.Name, len(v), med, q1, q3, 100*sp, 100*m.Bound)
		}
	}
	return 0
}

// Command benchdiff gates the JSON reports the load harnesses write, using
// only the repository's own statistics package (no external tooling).
//
// With -slo the command gates a loadgen SLO report (the slo.json that
// `make slo` writes) against absolute budgets and, optionally, a baseline
// report from an earlier run:
//
//	benchdiff -slo slo.json -p99-budget-ms 5 -error-budget 0.001
//	benchdiff -slo slo.json -slo-baseline old-slo.json -p99-tolerance 1.25
//
// Exit status 1 when any enforced budget is blown or the new p99 exceeds
// the baseline's by more than the tolerance factor.
//
// With -admit the command gates an admission A/B report (the admit.json
// that `make admit` writes): the Welch t-test over the per-rep throughput
// samples is recomputed here — the gate does not trust the producer's own
// verdict — and checked against the speedup floor, significance level,
// and tail-latency cap:
//
//	benchdiff -admit admit.json -min-speedup 3 -max-p99-ratio 2 -admit-alpha 0.005
//
// With -hier the command gates the grouped-selection equivalence report
// (the hier.json that `make hier` writes): every comparison exact, quality
// ratio at or above the floor:
//
//	benchdiff -hier hier.json -min-quality 0.95
//
// The Welch gate refuses degenerate inputs — fewer than two samples per
// side, or zero variance in both — with exit status 2 rather than letting
// an unfalsifiable test read as a pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"nodeselect/internal/loadgen"
)

// readSLO loads one slo.json report.
func readSLO(path string) (loadgen.SLOReport, error) {
	var rep loadgen.SLOReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// sloGate checks a report against absolute budgets and (optionally) a
// baseline report's p99, returning the process exit code.
func sloGate(path, baselinePath string, budget loadgen.SLOBudget, p99Tolerance float64) int {
	rep, err := readSLO(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	fmt.Printf("%s: p50 %.3fms  p99 %.3fms  p999 %.3fms  error rate %.4f  (%d requests)\n",
		path, rep.LatencyMs.P50, rep.LatencyMs.P99, rep.LatencyMs.P999, rep.ErrorRate, rep.Requests)
	failed := false
	if err := rep.Check(budget); err != nil {
		fmt.Printf("SLO REGRESSION: %v\n", err)
		failed = true
	}
	if baselinePath != "" {
		base, err := readSLO(baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			return 2
		}
		limit := base.LatencyMs.P99 * p99Tolerance
		fmt.Printf("baseline %s: p99 %.3fms, tolerance %.2fx -> limit %.3fms\n",
			baselinePath, base.LatencyMs.P99, p99Tolerance, limit)
		if rep.LatencyMs.P99 > limit {
			fmt.Printf("SLO REGRESSION: p99 %.3fms exceeds baseline limit %.3fms\n", rep.LatencyMs.P99, limit)
			failed = true
		}
	}
	if failed {
		return 1
	}
	fmt.Println("SLO ok")
	return 0
}

// admitGate re-gates an admit.json report against the given thresholds,
// recomputing the comparison from the raw per-rep throughput samples, and
// returns the process exit code.
func admitGate(path string, minSpeedup, maxP99Ratio, alpha float64) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	var rep loadgen.AdmitReport
	if err := json.Unmarshal(data, &rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", path, err)
		return 2
	}
	if len(rep.Serial.ThroughputSamples) < 2 || len(rep.Batched.ThroughputSamples) < 2 {
		fmt.Fprintf(os.Stderr, "benchdiff: %s: need at least 2 throughput samples per mode for Welch's t-test (serial %d, batched %d)\n",
			path, len(rep.Serial.ThroughputSamples), len(rep.Batched.ThroughputSamples))
		return 2
	}
	gated := loadgen.GateAdmit(rep.Serial, rep.Batched, minSpeedup, maxP99Ratio, alpha)
	fmt.Printf("%s: serial %.0f selects/s, batched %.0f selects/s, speedup %.2fx (welch p %.4g), p99 ratio %.2fx\n",
		path, gated.Serial.ThroughputRPS, gated.Batched.ThroughputRPS,
		gated.Speedup, gated.WelchP, gated.P99Ratio)
	if !gated.Pass {
		for _, f := range gated.Failures {
			fmt.Printf("ADMIT REGRESSION: %s\n", f)
		}
		return 1
	}
	fmt.Println("admit ok")
	return 0
}

// hierGate re-gates a hier.json report against the quality floor,
// recounting the comparisons, and returns the process exit code.
func hierGate(path string, minQuality float64) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	var rep loadgen.HierReport
	if err := json.Unmarshal(data, &rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", path, err)
		return 2
	}
	gated := loadgen.GateHier(rep.Equivalence, minQuality)
	fmt.Printf("%s: equivalence %d/%d exact, quotient share %.2f, quality %.4f\n",
		path, gated.Equivalence.Exact, gated.Equivalence.Cases,
		gated.Equivalence.QuotientShare, gated.Equivalence.QualityRatio)
	if !gated.Pass {
		for _, f := range gated.Failures {
			fmt.Printf("HIER REGRESSION: %s\n", f)
		}
		return 1
	}
	fmt.Println("hier ok")
	return 0
}

func main() {
	var (
		sloFile      = flag.String("slo", "", "gate this slo.json report")
		sloBaseline  = flag.String("slo-baseline", "", "baseline slo.json to compare the -slo report against")
		p99Budget    = flag.Float64("p99-budget-ms", 0, "with -slo: fail when p99 exceeds this many ms (0 = not enforced)")
		p999Budget   = flag.Float64("p999-budget-ms", 0, "with -slo: fail when p999 exceeds this many ms (0 = not enforced)")
		errBudget    = flag.Float64("error-budget", 0, "with -slo: fail when the 5xx error rate exceeds this (0 = not enforced)")
		p99Tolerance = flag.Float64("p99-tolerance", 1.25, "with -slo-baseline: fail when p99 exceeds baseline p99 times this")
		admitFile    = flag.String("admit", "", "gate this admit.json A/B report")
		minSpeedup   = flag.Float64("min-speedup", 3.0, "with -admit: fail when batched/serial throughput is below this")
		maxP99Ratio  = flag.Float64("max-p99-ratio", 2.0, "with -admit: fail when batched p99 exceeds serial p99 times this")
		admitAlpha   = flag.Float64("admit-alpha", 0.005, "with -admit: Welch t-test significance level for the speedup")
		hierFile     = flag.String("hier", "", "gate this hier.json equivalence report")
		minQuality   = flag.Float64("min-quality", 0.95, "with -hier: fail when the grouped/ungrouped minresource ratio is below this")
	)
	flag.Parse()

	if *hierFile != "" {
		os.Exit(hierGate(*hierFile, *minQuality))
	}

	if *admitFile != "" {
		os.Exit(admitGate(*admitFile, *minSpeedup, *maxP99Ratio, *admitAlpha))
	}

	if *sloFile != "" {
		os.Exit(sloGate(*sloFile, *sloBaseline, loadgen.SLOBudget{
			MaxP99Ms:     *p99Budget,
			MaxP999Ms:    *p999Budget,
			MaxErrorRate: *errBudget,
		}, *p99Tolerance))
	}

	fmt.Fprintln(os.Stderr, "usage: benchdiff -slo slo.json | -admit admit.json | -hier hier.json  (see -h for the thresholds)")
	os.Exit(2)
}

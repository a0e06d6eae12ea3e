package loadgen

import (
	"fmt"
	"math"

	"nodeselect/internal/stats"
)

// This file holds the report and gate types for the hierarchical-selection
// A/B benchmark: the same paired select sequence is timed against the flat
// union-find sweep and the collapsed quotient sweep on a large two-tier
// topology, and the per-rep mean latencies are compared with Welch's
// t-test. The benchmark itself lives in internal/experiment (RunHier);
// this layer is shared with cmd/benchdiff so the -hier gate can recompute
// the comparison from the raw samples without trusting the producer.

// HierModeReport summarizes one arm (flat or hierarchical) of the select
// latency A/B across its reps.
type HierModeReport struct {
	// Topology names the testbed preset the arm ran on and Nodes its size.
	Topology string `json:"topology"`
	Nodes    int    `json:"nodes"`
	// Selects is the number of timed selects per rep; Reps the number of
	// independently repainted repetitions.
	Selects int `json:"selects"`
	Reps    int `json:"reps"`
	// LatencySamples is the per-rep mean select latency in seconds — the
	// input to the Welch comparison (kept raw so benchdiff can recompute
	// the test).
	LatencySamples []float64 `json:"latency_samples"`
	// MeanLatencyMs is the mean of the samples, in milliseconds.
	MeanLatencyMs float64 `json:"mean_latency_ms"`
}

// HierEquivalence summarizes the randomized equivalence/quality suite:
// every select on every ≤200-node topology is answered by both paths and
// compared field by field.
type HierEquivalence struct {
	// Topologies and Cases count the randomized topologies and the select
	// comparisons run over them.
	Topologies int `json:"topologies"`
	Cases      int `json:"cases"`
	// Exact counts comparisons whose outcomes (node sets, scores, and
	// errors alike) were identical. The gate requires Exact == Cases.
	Exact int `json:"exact"`
	// QuotientShare is the fraction of comparisons the hierarchical side
	// answered via the quotient path (the rest fell back, which still
	// must match but exercises no collapse).
	QuotientShare float64 `json:"quotient_share"`
	// QualityRatio is the worst hierarchical/flat minresource ratio over
	// the successful comparisons (1 when every outcome matched exactly).
	QualityRatio float64 `json:"quality_ratio"`
}

// HierScale is one ungated showcase row: how the two paths compare at a
// scale outside the gated comparison (the 1k fat-tree, where collapse buys
// less, and the 50k two-tier).
type HierScale struct {
	Topology string `json:"topology"`
	Nodes    int    `json:"nodes"`
	// Clusters and CollapsedNodes describe the partition built there.
	Clusters       int `json:"clusters"`
	CollapsedNodes int `json:"collapsed_nodes"`
	// PartitionBuildMs is the one-time per-epoch partition cost.
	PartitionBuildMs float64 `json:"partition_build_ms"`
	FlatMeanMs       float64 `json:"flat_mean_ms,omitempty"`
	HierMeanMs       float64 `json:"hier_mean_ms"`
	// Speedup is FlatMeanMs/HierMeanMs.
	Speedup float64 `json:"speedup,omitempty"`
}

// HierReport is the full benchmark outcome written to hier.json and gated
// by cmd/benchdiff -hier.
type HierReport struct {
	Equivalence HierEquivalence `json:"equivalence"`
	Flat        HierModeReport  `json:"flat"`
	Hier        HierModeReport  `json:"hier"`
	// Speedup is flat mean latency over hierarchical mean latency.
	Speedup float64 `json:"speedup"`
	// WelchP is the two-sided Welch t-test p-value over the per-rep
	// latency samples.
	WelchP float64 `json:"welch_p"`
	// Scales carries the ungated showcase rows.
	Scales []HierScale `json:"scales,omitempty"`
	// The thresholds the report was gated with, echoed for benchdiff.
	MinSpeedup float64 `json:"min_speedup"`
	Alpha      float64 `json:"alpha"`
	MinQuality float64 `json:"min_quality"`
	// Pass and Failures are GateHier's verdict.
	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
}

// GateHier applies the acceptance thresholds: the equivalence suite must
// be exact, hierarchical minresource must stay within minQuality of flat,
// and the hierarchical arm must beat the flat arm by minSpeedup with
// Welch p below alpha. Degenerate latency samples (fewer than two reps,
// or zero variance in both arms) fail the gate explicitly rather than
// producing an unfalsifiable comparison.
func GateHier(eq HierEquivalence, flat, hier HierModeReport, scales []HierScale, minSpeedup, alpha, minQuality float64) HierReport {
	r := HierReport{
		Equivalence: eq, Flat: flat, Hier: hier, Scales: scales,
		MinSpeedup: minSpeedup, Alpha: alpha, MinQuality: minQuality,
	}
	if eq.Cases == 0 {
		r.Failures = append(r.Failures, "equivalence suite ran no comparisons")
	} else if eq.Exact != eq.Cases {
		r.Failures = append(r.Failures,
			fmt.Sprintf("equivalence suite: %d of %d comparisons diverged", eq.Cases-eq.Exact, eq.Cases))
	}
	if minQuality > 0 && eq.QualityRatio < minQuality {
		r.Failures = append(r.Failures,
			fmt.Sprintf("quality ratio %.4f below floor %.4f", eq.QualityRatio, minQuality))
	}

	var sF, sH stats.Sample
	sF.AddAll(flat.LatencySamples...)
	sH.AddAll(hier.LatencySamples...)
	if m := sH.Mean(); m > 0 {
		r.Speedup = sF.Mean() / m
	}
	r.WelchP = stats.WelchT(&sF, &sH).P

	switch {
	case sF.N() < 2 || sH.N() < 2:
		r.Failures = append(r.Failures,
			fmt.Sprintf("degenerate latency samples: flat n=%d, hier n=%d (need >= 2 each)", sF.N(), sH.N()))
	case sF.Min() == sF.Max() && sH.Min() == sH.Max():
		r.Failures = append(r.Failures,
			"degenerate latency samples: zero variance in both arms")
	default:
		if minSpeedup > 0 && r.Speedup < minSpeedup {
			r.Failures = append(r.Failures,
				fmt.Sprintf("speedup %.2fx below floor %.2fx", r.Speedup, minSpeedup))
		}
		if alpha > 0 {
			if math.IsNaN(r.WelchP) || r.WelchP >= alpha {
				r.Failures = append(r.Failures,
					fmt.Sprintf("welch p %.4g not significant at alpha %.4g", r.WelchP, alpha))
			} else if sH.Mean() >= sF.Mean() {
				r.Failures = append(r.Failures, "hierarchical mean latency does not beat flat")
			}
		}
	}
	r.Pass = len(r.Failures) == 0
	return r
}

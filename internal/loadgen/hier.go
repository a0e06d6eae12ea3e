package loadgen

import "fmt"

// This file holds the report and gate types for the grouped-selection
// equivalence suite: every select on every randomized ≤200-node topology is
// answered with and without the partition's grouping and compared field by
// field. The suite itself lives in internal/experiment (RunHier); this
// layer is shared with cmd/benchdiff so the -hier gate can recheck the
// counts without trusting the producer's verdict. What grouping buys in
// time is the benchmark's business (bench/, workload tiered10k_hier).

// HierEquivalence summarizes the randomized equivalence/quality suite.
type HierEquivalence struct {
	// Topologies and Cases count the randomized topologies and the select
	// comparisons run over them.
	Topologies int `json:"topologies"`
	Cases      int `json:"cases"`
	// Exact counts comparisons whose outcomes (node sets, scores, and
	// errors alike) were identical. The gate requires Exact == Cases.
	Exact int `json:"exact"`
	// QuotientShare is the fraction of comparisons that ran grouped (the
	// rest fell outside the grouped class, which still must match but
	// exercises no grouping).
	QuotientShare float64 `json:"quotient_share"`
	// QualityRatio is the worst grouped/ungrouped minresource ratio over
	// the successful comparisons (1 when every outcome matched exactly).
	QualityRatio float64 `json:"quality_ratio"`
}

// HierReport is the suite's outcome written to hier.json and gated by
// cmd/benchdiff -hier.
type HierReport struct {
	Equivalence HierEquivalence `json:"equivalence"`
	// MinQuality is the threshold the report was gated with, echoed for
	// benchdiff.
	MinQuality float64 `json:"min_quality"`
	// Pass and Failures are GateHier's verdict.
	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
}

// GateHier applies the acceptance thresholds: the equivalence suite must
// be exact and grouped minresource must stay within minQuality of
// ungrouped.
func GateHier(eq HierEquivalence, minQuality float64) HierReport {
	r := HierReport{Equivalence: eq, MinQuality: minQuality}
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
	r.Pass = len(r.Failures) == 0
	return r
}

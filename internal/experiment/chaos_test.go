package experiment

import (
	"fmt"
	"testing"
)

// TestChaosSchedule is the fault-tolerance acceptance test: with ~20% of
// agents hung or crashed, the collector must never block past its deadline
// bound, /select must keep answering from last-known-good data with the
// degradation declared, /healthz must report degraded, and full health must
// return after repair.
func TestChaosSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock timeouts; skipped in -short")
	}
	// Each seed draws its own fault schedule; every one must hold.
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res, err := RunChaos(ChaosOptions{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if res.MaxPollSeconds > res.DeadlineBoundSeconds {
				t.Errorf("poll blocked %.3fs, deadline bound %.3fs",
					res.MaxPollSeconds, res.DeadlineBoundSeconds)
			}
			if len(res.Rounds) < 3 {
				t.Fatalf("expected baseline + 2 fault rounds, got %d", len(res.Rounds))
			}
			base := res.Rounds[0]
			if base.State != "ok" || !base.SelectOK || base.SelectDegraded {
				t.Errorf("baseline round unhealthy: %+v", base)
			}
			for _, rd := range res.Rounds[1:] {
				if !rd.SelectOK {
					t.Errorf("round %d: /select stopped answering", rd.Round)
				}
				if rd.State != "degraded" {
					t.Errorf("round %d: state %q, want degraded", rd.Round, rd.State)
				}
				if !rd.SelectDegraded {
					t.Errorf("round %d: select response did not declare degradation", rd.Round)
				}
				if rd.FreshFraction >= 1 {
					t.Errorf("round %d: fresh fraction %.2f with faults active", rd.Round, rd.FreshFraction)
				}
			}
			if !res.Recovered {
				t.Errorf("service never recovered: state %q after %d polls",
					res.RecoveredState, res.RecoveryPolls)
			}
		})
	}
}

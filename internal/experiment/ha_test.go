package experiment

import (
	"fmt"
	"testing"
)

// TestHASchedules is the replicated-ledger acceptance test: the three
// fault schedules (kill-the-leader mid-admission, follower partition,
// torn/delayed append) must all hold their invariants — no acknowledged
// lease lost, no double admission, failover inside the budget, and a
// restarted replica recovering a torn log into the committed state.
func TestHASchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock election timeouts; skipped in -short")
	}
	// Each seed draws its own fault schedule; every one must hold.
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rep, err := RunHA(HAOptions{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Scenarios) != 3 {
				t.Fatalf("expected 3 scenarios, got %d", len(rep.Scenarios))
			}
			for _, sc := range rep.Scenarios {
				if sc.Lost != 0 {
					t.Errorf("%s: %d acked leases lost", sc.Name, sc.Lost)
				}
				if sc.DoubleAdmissions != 0 {
					t.Errorf("%s: %d double admissions", sc.Name, sc.DoubleAdmissions)
				}
				if sc.Acked == 0 {
					t.Errorf("%s: no admissions acknowledged at all", sc.Name)
				}
				for _, ch := range sc.Checks {
					if !ch.Pass {
						t.Errorf("%s: check %s failed: %s", sc.Name, ch.Name, ch.Detail)
					}
				}
			}
			if kill := rep.Scenarios[0]; kill.FailoverMS <= 0 || kill.FailoverMS > rep.FailoverBudgetMS {
				t.Errorf("kill-leader failover %.0fms outside (0, %.0fms]", kill.FailoverMS, rep.FailoverBudgetMS)
			}
			if !rep.Pass {
				t.Fatal("HA report did not pass")
			}
		})
	}
}

package lease

import (
	"context"
	"slices"
	"testing"
	"time"
)

// TestResidualHandedOutNeverChanges pins the sharing contract of Residual:
// between two commits every caller gets the same view, without a clone, and
// a view once handed out keeps its values while later commits derive their
// views on copies (CrossCheck holds each of those to a full recompute).
func TestResidualHandedOutNeverChanges(t *testing.T) {
	clock := newFakeClock()
	l, snap := newStarLedger(t, 6, Options{Now: clock.Now, CrossCheck: true})
	ctx := context.Background()
	first, err := l.Acquire(ctx, snap, Demand{CPU: 0.3, BW: 5e6}, time.Minute, balancedPlace(2, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	view := l.Residual(snap)
	if again := l.Residual(snap); again != view {
		t.Fatal("two reads with no commit between them returned different views")
	}
	loads, avail := slices.Clone(view.LoadAvg), slices.Clone(view.AvailBW)

	if _, err := l.Acquire(ctx, snap, Demand{CPU: 0.2, BW: 5e6}, time.Minute, balancedPlace(2, 0.2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Release(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	next := l.Residual(snap)
	if next == view {
		t.Fatal("commits did not derive a new view")
	}
	if !slices.Equal(view.LoadAvg, loads) || !slices.Equal(view.AvailBW, avail) {
		t.Fatal("a later commit rewrote a view already handed out")
	}
}

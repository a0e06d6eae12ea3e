package selectsvc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"nodeselect/internal/topology"
)

// snapshotsBuilt reads remos_queries_total for one mode off /metrics: the
// number of snapshots the collector's views have built under that mode.
func snapshotsBuilt(t *testing.T, h http.Handler, mode string) float64 {
	t.Helper()
	prefix := `remos_queries_total{mode="` + mode + `"} `
	for _, line := range strings.Split(do(t, h, "GET", "/metrics", nil).Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	return 0
}

// TestEpochSharesOneSnapshotPerMode pins what a poll epoch shares: readers
// of a mode arriving together build its snapshot once, every select and
// /snapshot read of the poll gets that same snapshot, another mode gets its
// own, and the next poll publishes a new one.
func TestEpochSharesOneSnapshotPerMode(t *testing.T) {
	svc, src, _ := newTestService(t)
	h := svc.Handler()
	const readers = 16
	snaps := make([]*topology.Snapshot, readers)
	var wg sync.WaitGroup
	for i := range readers {
		body, err := json.Marshal(SelectRequest{M: 2 + i%3})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/select", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Errorf("select %d: status %d: %s", i, rec.Code, rec.Body)
			}
			snap, err := svc.snapshot("current")
			if err != nil {
				t.Error(err)
			}
			snaps[i] = snap
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, s := range snaps {
		if s != snaps[0] {
			t.Fatalf("reader %d got a snapshot of its own", i)
		}
	}
	if got := snapshotsBuilt(t, h, "current"); got != 1 {
		t.Fatalf("%v current-mode snapshots built for %d readers of one poll, want 1", got, 2*readers)
	}
	window, err := svc.snapshot("window")
	if err != nil {
		t.Fatal(err)
	}
	if window == snaps[0] {
		t.Fatal("two query modes share one snapshot")
	}

	src.Advance(2)
	if err := svc.Poll(); err != nil {
		t.Fatal(err)
	}
	next, err := svc.snapshot("current")
	if err != nil {
		t.Fatal(err)
	}
	if next == snaps[0] {
		t.Fatal("a poll did not publish a new snapshot")
	}
	if got := snapshotsBuilt(t, h, "current"); got != 2 {
		t.Fatalf("%v current-mode snapshots built over two polls, want 2", got)
	}
}

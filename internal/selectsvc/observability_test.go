package selectsvc

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"nodeselect/internal/remos"
	"nodeselect/internal/testbed"
)

// promLine matches a valid Prometheus text-format sample line.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? [^ ]+$`)

// TestMetricsExposition is the acceptance check: after one successful
// /select, /metrics serves valid Prometheus text exposition containing a
// counter, a gauge and a histogram, and /decisions returns the audit
// entry for the request.
func TestMetricsExposition(t *testing.T) {
	svc, _, _ := newTestService(t)
	h := svc.Handler()

	if w := do(t, h, "POST", "/select", SelectRequest{M: 4}); w.Code != http.StatusOK {
		t.Fatalf("select status %d: %s", w.Code, w.Body)
	}

	w := do(t, h, "GET", "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body := w.Body.String()

	// Counter with labels, from the request we just made.
	if !strings.Contains(body, `selectsvc_requests_total{algo="balanced",mode="current"} 1`) {
		t.Errorf("requests counter missing:\n%s", body)
	}
	// Gauge from the collector (two polls in newTestService).
	if !strings.Contains(body, "remos_window_samples 2") {
		t.Errorf("window gauge missing:\n%s", body)
	}
	// Histogram with buckets, sum and count.
	for _, want := range []string{
		`selectsvc_select_seconds_bucket{le="+Inf"} 1`,
		"selectsvc_select_seconds_sum ",
		"selectsvc_select_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("histogram sample %q missing:\n%s", want, body)
		}
	}
	// HELP/TYPE metadata present and every sample line well-formed.
	if !strings.Contains(body, "# TYPE selectsvc_select_seconds histogram") {
		t.Error("histogram TYPE line missing")
	}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestDebugVars(t *testing.T) {
	svc, _, _ := newTestService(t)
	h := svc.Handler()
	do(t, h, "POST", "/select", SelectRequest{M: 3})

	w := do(t, h, "GET", "/debug/vars", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &vars); err != nil {
		t.Fatalf("vars not JSON: %v", err)
	}
	for _, name := range []string{"selectsvc_requests_total", "selectsvc_select_seconds", "remos_polls_total"} {
		if _, ok := vars[name]; !ok {
			t.Errorf("%s missing from /debug/vars", name)
		}
	}
}

func TestDecisionsEndpoint(t *testing.T) {
	svc, _, _ := newTestService(t)
	h := svc.Handler()
	if w := do(t, h, "POST", "/select", SelectRequest{M: 4, Algo: "balanced"}); w.Code != http.StatusOK {
		t.Fatalf("select status %d: %s", w.Code, w.Body)
	}

	w := do(t, h, "GET", "/decisions", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("decisions status %d", w.Code)
	}
	var ds []Decision
	if err := json.Unmarshal(w.Body.Bytes(), &ds); err != nil {
		t.Fatalf("decisions not JSON: %v", err)
	}
	if len(ds) != 1 {
		t.Fatalf("decisions = %d, want 1", len(ds))
	}
	d := ds[0]
	if d.Algo != "balanced" || d.Mode != "current" || d.M != 4 {
		t.Errorf("decision header wrong: %+v", d)
	}
	if len(d.Nodes) != 4 || d.MinResource <= 0 {
		t.Errorf("decision result wrong: %+v", d)
	}
	if len(d.Trace) == 0 {
		t.Error("balanced decision has no sweep trace")
	} else {
		if d.Trace[0].Round != 0 {
			t.Errorf("trace starts at round %d", d.Trace[0].Round)
		}
		improved := false
		for _, r := range d.Trace {
			improved = improved || r.Improved
		}
		if !improved {
			t.Error("no trace round marked improved")
		}
	}
	if d.DurationSeconds < 0 {
		t.Errorf("duration %v", d.DurationSeconds)
	}

	// Failures are audited too, with an error class.
	if w := do(t, h, "POST", "/select", SelectRequest{M: 99}); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible status %d", w.Code)
	}
	w = do(t, h, "GET", "/decisions?n=1", nil)
	ds = nil
	if err := json.Unmarshal(w.Body.Bytes(), &ds); err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 {
		t.Fatalf("n=1 returned %d entries", len(ds))
	}
	if ds[0].ErrorClass != "infeasible" || ds[0].Error == "" {
		t.Errorf("failed decision = %+v", ds[0])
	}
	if ds[0].ID != 1 {
		t.Errorf("newest decision ID = %d, want 1", ds[0].ID)
	}

	// Bad ?n rejected.
	if w := do(t, h, "GET", "/decisions?n=bogus", nil); w.Code != http.StatusBadRequest {
		t.Errorf("bad n status %d", w.Code)
	}
}

func TestErrorBodiesAndClasses(t *testing.T) {
	svc, _, _ := newTestService(t)
	h := svc.Handler()

	cases := []struct {
		name   string
		body   string
		status int
		substr string
		class  string
	}{
		{"malformed json", "{", http.StatusBadRequest, "bad request", "bad_request"},
		{"unknown algo", `{"m":2,"algo":"vibes"}`, http.StatusBadRequest, "unknown algorithm", "bad_request"},
		{"unknown mode", `{"m":2,"mode":"psychic"}`, http.StatusBadRequest, "unknown mode", "bad_request"},
		{"too many nodes", `{"m":99}`, http.StatusUnprocessableEntity, "not enough eligible", "infeasible"},
		{"ghost pin", `{"m":2,"pin":["ghost"]}`, http.StatusUnprocessableEntity, "unknown pinned node", "infeasible"},
		{"impossible floor", `{"m":3,"min_bw":1e15}`, http.StatusUnprocessableEntity, "no feasible node set", "infeasible"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := httptest.NewRequest("POST", "/select", strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			if w.Code != tc.status {
				t.Fatalf("status %d, want %d (%s)", w.Code, tc.status, w.Body)
			}
			if !strings.Contains(w.Body.String(), tc.substr) {
				t.Errorf("body %q missing %q", w.Body.String(), tc.substr)
			}
		})
	}

	// The error classes all landed in the counter vec.
	w := do(t, h, "GET", "/metrics", nil)
	body := w.Body.String()
	if !strings.Contains(body, `selectsvc_errors_total{class="bad_request"} 3`) {
		t.Errorf("bad_request errors not counted:\n%s", body)
	}
	if !strings.Contains(body, `selectsvc_errors_total{class="infeasible"} 3`) {
		t.Errorf("infeasible errors not counted:\n%s", body)
	}
}

// TestUnknownAlgoLeavesNoTrace: a client-chosen algorithm name must not
// become a selectsvc_requests_total series (they are never reclaimed) nor
// take a plan-cache slot; it is a counted, audited 400 and nothing else.
func TestUnknownAlgoLeavesNoTrace(t *testing.T) {
	svc, _, _ := newTestService(t)
	h := svc.Handler()
	do(t, h, "POST", "/select", SelectRequest{M: 2}) // one legitimate series and cache entry

	state := func() (series int, entries string) {
		for _, line := range strings.Split(do(t, h, "GET", "/metrics", nil).Body.String(), "\n") {
			if strings.HasPrefix(line, "selectsvc_requests_total{") {
				series++
			}
			if strings.HasPrefix(line, "selectsvc_plan_cache_entries ") {
				entries = line
			}
		}
		return series, entries
	}
	series, entries := state()
	if series != 1 || entries != "selectsvc_plan_cache_entries 1" {
		t.Fatalf("before: %d request series, %q", series, entries)
	}

	const junk = 50
	for i := 0; i < junk; i++ {
		w := do(t, h, "POST", "/select", SelectRequest{M: 2, Algo: fmt.Sprintf("junk-%d", i)})
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `"class":"bad_request"`) {
			t.Fatalf("junk algo %d: status %d body %s", i, w.Code, w.Body)
		}
	}
	if s, e := state(); s != series || e != entries {
		t.Fatalf("after %d junk names: %d request series (was %d), %q (was %q)", junk, s, series, e, entries)
	}
	body := do(t, h, "GET", "/metrics", nil).Body.String()
	if want := fmt.Sprintf(`selectsvc_errors_total{class="bad_request"} %d`, junk); !strings.Contains(body, want) {
		t.Errorf("rejections not counted as %s", want)
	}
	var ds []Decision
	if err := json.Unmarshal(do(t, h, "GET", "/decisions?n=1", nil).Body.Bytes(), &ds); err != nil || len(ds) != 1 {
		t.Fatalf("decisions: %v (%d entries)", err, len(ds))
	}
	if ds[0].ErrorClass != "bad_request" || ds[0].Algo != fmt.Sprintf("junk-%d", junk-1) {
		t.Errorf("last rejection not audited: %+v", ds[0])
	}
}

// TestNoDataClass covers querying before the first poll: 503, useful
// body, and the no_data error class.
func TestNoDataClass(t *testing.T) {
	svc := New(remos.NewStaticSource(testbed.CMU()), Config{})
	h := svc.Handler()
	w := do(t, h, "POST", "/select", SelectRequest{M: 2})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d", w.Code)
	}
	if !strings.Contains(w.Body.String(), "not enough samples") {
		t.Errorf("body %q", w.Body.String())
	}
	m := do(t, h, "GET", "/metrics", nil)
	if !strings.Contains(m.Body.String(), `selectsvc_errors_total{class="no_data"} 1`) {
		t.Errorf("no_data class not counted:\n%s", m.Body.String())
	}
}

func TestAuditRing(t *testing.T) {
	r := newAuditRing(3)
	if got := r.recent(0); len(got) != 0 {
		t.Fatalf("empty ring returned %v", got)
	}
	for i := 0; i < 5; i++ {
		id := r.add(Decision{Algo: fmt.Sprintf("a%d", i)})
		if id != int64(i) {
			t.Fatalf("add %d returned id %d", i, id)
		}
	}
	if r.size() != 5 {
		t.Fatalf("size = %d", r.size())
	}
	// Only the last 3 retained, newest first.
	got := r.recent(0)
	if len(got) != 3 {
		t.Fatalf("recent = %d entries", len(got))
	}
	for i, want := range []string{"a4", "a3", "a2"} {
		if got[i].Algo != want || got[i].ID != int64(4-i) {
			t.Errorf("recent[%d] = %+v, want algo %s id %d", i, got[i], want, 4-i)
		}
	}
	// n caps the answer.
	if got := r.recent(2); len(got) != 2 || got[0].Algo != "a4" {
		t.Errorf("recent(2) = %+v", got)
	}
	// n larger than retained is clamped.
	if got := r.recent(10); len(got) != 3 {
		t.Errorf("recent(10) = %d entries", len(got))
	}
}

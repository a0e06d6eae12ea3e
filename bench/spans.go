package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Request; Parent is the ID of the span that caused this one, -1 for
// a root. Times count from the log's start, in nanoseconds.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the benchmark ends. It is safe for
// concurrent use.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(name string, parent, request int, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Request: request, Name: name,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0)),
	})
	return id
}

// begin opens a span now and returns its ID; end closes it and returns its
// length.
func (l *spanLog) begin(name string, parent, request int) int {
	now := time.Now()
	return l.add(name, parent, request, now, now)
}

func (l *spanLog) end(id int) time.Duration {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id].End = int64(now.Sub(l.t0))
	return time.Duration(l.spans[id].End - l.spans[id].Start)
}

// timed runs fn under a span and returns the span's length.
func (l *spanLog) timed(name string, parent, request int, fn func()) time.Duration {
	id := l.begin(name, parent, request)
	fn()
	return l.end(id)
}

// clientSpans records one real-process operation as a root span with its
// three parts: the wait for a free connection, bytes written to first
// reply byte, and the reply's read.
func (l *spanLog) clientSpans(request int, s sample, r reply) {
	name := "client." + s.kind.String()
	if s.kind == opSelect {
		name += "." + s.class
	}
	root := l.add(name, -1, request, r.sent.Add(-s.wait-s.overshoot), r.end)
	l.add("conn_wait", root, request, r.sent.Add(-s.wait-s.overshoot), r.sent.Add(-s.overshoot))
	l.add("write_to_first_byte", root, request, r.sent, r.firstByte)
	l.add("read", root, request, r.firstByte, r.end)
}

// durations returns the length in microseconds of every span of a name.
func (l *spanLog) durations(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

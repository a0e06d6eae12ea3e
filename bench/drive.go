package main

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

type opKind int

const (
	opSelect opKind = iota
	opRenew
	opRelease
)

func (k opKind) String() string { return [...]string{"select", "renew", "release"}[k] }

// op is one operation to send: a scheduled select, or the renew or release
// that follows a leased one. due counts from the driver's start.
type op struct {
	kind  opKind
	due   time.Duration
	req   *request // selects
	lease string   // renews and releases
	// releaseAt is carried by a renew: its lease is released then.
	releaseAt time.Duration
}

// followUps is a min-heap of renews and releases by due time.
type followUps []op

func (h followUps) Len() int           { return len(h) }
func (h followUps) Less(i, j int) bool { return h[i].due < h[j].due }
func (h followUps) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *followUps) Push(x any)        { *h = append(*h, x.(op)) }
func (h *followUps) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// Phases a sample can belong to.
const (
	phaseWarm = iota
	phaseOpen
	phaseTraced // the traced half of a traced pass's open loop
	phaseClosed
)

// sample is the record of one operation sent.
//
// A request's latency is service + wait: the time over the socket from
// bytes written to reply read, plus the time it waited past its due time
// because every connection was busy. The generator's own lateness
// (overshoot: sent - max(due, connection free)) is reported, not charged.
type sample struct {
	kind      opKind
	class     string
	phase     int
	due       time.Duration
	wait      time.Duration
	overshoot time.Duration
	ttfb      time.Duration // bytes written -> first reply byte
	read      time.Duration // first reply byte -> reply read
	ok        bool
	why       string // first reason the answer was rejected
}

func (s sample) service() time.Duration { return s.ttfb + s.read }
func (s sample) latency() time.Duration { return s.service() + s.wait }

// driver sends one workload's stream to one selectd over nconn persistent
// connections, first open-loop on the schedule, then closed-loop.
type driver struct {
	w     workload
	in    *inputs
	addr  string
	nconn int
	reqs  []request
	// spans, when set, receives a client span tree per operation: the
	// traced pass.
	spans atomic.Pointer[spanLog]

	t0 time.Time
	// openDone counts the open-loop phase's completed operations.
	openDone atomic.Int64

	mu      sync.Mutex
	next    int // next stream index
	follow  followUps
	samples []sample
	unsent  int // stream selects due in an open-loop phase that were never sent
}

func newDriver(w workload, in *inputs, addr string, nconn int, reqs []request) *driver {
	return &driver{w: w, in: in, addr: addr, nconn: nconn, reqs: reqs}
}

// selectReply is the part of a /select answer the benchmark checks.
type selectReply struct {
	Nodes       []string `json:"nodes"`
	MinResource float64  `json:"min_resource"`
	MeasuredAt  float64  `json:"measured_at"`
	Lease       *struct {
		ID string `json:"id"`
	} `json:"lease"`
}

// validSelect applies the per-answer validity check: status 200, the wanted
// number of distinct nodes, each a compute node of the generated topology,
// and a lease on a leased request.
func validSelect(in *inputs, req *request, r reply) (selectReply, string) {
	var sr selectReply
	if r.err != nil {
		return sr, "transport: " + r.err.Error()
	}
	if r.status != 200 {
		return sr, fmt.Sprintf("status %d: %.120s", r.status, r.body)
	}
	if err := json.Unmarshal(r.body, &sr); err != nil {
		return sr, "undecodable answer: " + err.Error()
	}
	if len(sr.Nodes) != req.want {
		return sr, fmt.Sprintf("%d nodes, want %d", len(sr.Nodes), req.want)
	}
	seen := make(map[string]bool, len(sr.Nodes))
	for _, n := range sr.Nodes {
		if !in.compute[n] {
			return sr, "not a compute node of the topology: " + n
		}
		if seen[n] {
			return sr, "node selected twice: " + n
		}
		seen[n] = true
	}
	if req.class == leasedClass && (sr.Lease == nil || sr.Lease.ID == "") {
		return sr, "leased select answered without a lease"
	}
	return sr, ""
}

var renewBody = []byte(`{"ttl":30}`)

// exec sends one operation and records its sample, scheduling the
// follow-ups of a leased select from its reply time.
func (d *driver) exec(c *client, o op, phase int, wait time.Duration, ready time.Time) sample {
	var r reply
	s := sample{kind: o.kind, phase: phase, due: o.due, wait: wait}
	switch o.kind {
	case opSelect:
		s.class = o.req.class
		r = c.do("POST", "/select", o.req.body)
		var sr selectReply
		sr, s.why = validSelect(d.in, o.req, r)
		if s.why == "" && sr.Lease != nil {
			end := r.end.Sub(d.t0)
			d.mu.Lock()
			if o.req.renew {
				heap.Push(&d.follow, op{kind: opRenew, due: end + renewAfter, lease: sr.Lease.ID, releaseAt: end + releaseAfter})
			} else {
				heap.Push(&d.follow, op{kind: opRelease, due: end + releaseAfter, lease: sr.Lease.ID})
			}
			d.mu.Unlock()
		}
	case opRenew:
		s.class = leasedClass
		r = c.do("POST", "/leases/"+o.lease+"/renew", renewBody)
		s.why = statusWhy(r)
		// The release waits for the renew's reply, so the two never race
		// on two connections.
		d.mu.Lock()
		heap.Push(&d.follow, op{kind: opRelease, due: o.releaseAt, lease: o.lease})
		d.mu.Unlock()
	case opRelease:
		s.class = leasedClass
		r = c.do("DELETE", "/leases/"+o.lease, nil)
		s.why = statusWhy(r)
	}
	s.ok = s.why == ""
	if r.err == nil {
		s.ttfb = r.firstByte.Sub(r.sent)
		s.read = r.end.Sub(r.firstByte)
		s.overshoot = r.sent.Sub(ready)
	}
	if phase == phaseOpen || phase == phaseTraced {
		d.openDone.Add(1)
	}
	d.mu.Lock()
	id := len(d.samples)
	d.samples = append(d.samples, s)
	d.mu.Unlock()
	if log := d.spans.Load(); log != nil && r.err == nil {
		log.clientSpans(id, s, r)
	}
	return s
}

func statusWhy(r reply) string {
	if r.err != nil {
		return "transport: " + r.err.Error()
	}
	if r.status != 200 {
		return fmt.Sprintf("status %d: %.120s", r.status, r.body)
	}
	return ""
}

// nextDue pops the earliest operation due before until: the stream's head
// or a follow-up. ok is false when nothing is due in the phase any more.
func (d *driver) nextDue(until time.Duration) (o op, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	streamDue := until
	if d.next < len(d.reqs) {
		streamDue = d.reqs[d.next].due
	}
	if len(d.follow) > 0 && d.follow[0].due < streamDue && d.follow[0].due < until {
		return heap.Pop(&d.follow).(op), true
	}
	if streamDue < until {
		r := &d.reqs[d.next]
		d.next++
		return op{kind: opSelect, due: r.due, req: r}, true
	}
	return op{}, false
}

// worker is one connection; freeAt is when it last became free.
type worker struct {
	c      *client
	freeAt time.Time
	jobs   chan job
}

type job struct {
	o     op
	phase int
	wait  time.Duration
	ready time.Time // max(due, connection free): when it could first be sent
}

// overrun is how long past a phase's end the open loop keeps sending what
// was due inside it before it gives the rest up as unsent.
const overrun = 2 * time.Second

// mark runs fn once, when the open loop reaches the first operation due at
// or after at.
type mark struct {
	at time.Duration
	fn func()
}

// runOpen sends every operation due before until on its due time, or as
// soon after as a connection is free. phaseOf maps a due time to the phase
// its sample is filed under. It returns when all replies are in.
func (d *driver) runOpen(until time.Duration, phaseOf func(time.Duration) int, marks []mark) {
	free := make(chan *worker, d.nconn)
	var wg sync.WaitGroup
	workers := make([]*worker, d.nconn)
	for i := range workers {
		wk := &worker{c: newClient(d.addr), freeAt: time.Now(), jobs: make(chan job)}
		workers[i] = wk
		free <- wk
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer wk.c.close()
			for j := range wk.jobs {
				d.exec(wk.c, j.o, j.phase, j.wait, j.ready)
				wk.freeAt = time.Now()
				free <- wk
			}
		}()
	}
	for {
		o, ok := d.nextDue(until)
		if !ok {
			break
		}
		for len(marks) > 0 && o.due >= marks[0].at {
			marks[0].fn()
			marks = marks[1:]
		}
		dueAt := d.t0.Add(o.due)
		if time.Since(d.t0) > until+overrun {
			d.mu.Lock()
			if o.kind == opSelect {
				d.unsent++
			} else {
				// Re-filed at the phase's end, so the next phase sends it.
				o.due = until
				heap.Push(&d.follow, o)
			}
			d.mu.Unlock()
			continue
		}
		if pause := time.Until(dueAt); pause > 0 {
			time.Sleep(pause)
		}
		wk := <-free // the channel hand-off orders the worker's freeAt write before this read
		j := job{o: o, phase: phaseOf(o.due), ready: dueAt}
		if wk.freeAt.After(dueAt) {
			j.wait = wk.freeAt.Sub(dueAt)
			j.ready = wk.freeAt
		}
		wk.jobs <- j
	}
	for _, m := range marks {
		m.fn()
	}
	for _, wk := range workers {
		close(wk.jobs)
	}
	wg.Wait()
}

// runClosed has nconn callers each send the stream's next select when the
// previous reply is in (due follow-ups first), for dur. It returns when,
// from the phase's start, each correctly answered select completed.
func (d *driver) runClosed(dur time.Duration) []time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var done []time.Duration
	for i := 0; i < d.nconn; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(d.addr)
			defer c.close()
			for time.Now().Before(deadline) {
				now := time.Since(d.t0)
				d.mu.Lock()
				var o op
				switch {
				case len(d.follow) > 0 && d.follow[0].due <= now:
					o = heap.Pop(&d.follow).(op)
				case d.next < len(d.reqs):
					r := &d.reqs[d.next]
					d.next++
					o = op{kind: opSelect, due: now, req: r}
				default:
					d.mu.Unlock()
					return
				}
				d.mu.Unlock()
				s := d.exec(c, o, phaseClosed, 0, time.Now())
				if end := time.Since(start); s.kind == opSelect && s.ok && end < dur {
					mu.Lock()
					done = append(done, end)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return done
}

// drain releases every lease still held, following pending renews through,
// so the ledger must end empty. Drain operations are checked (they count
// in fail_share) but carry no latency.
func (d *driver) drain() {
	c := newClient(d.addr)
	defer c.close()
	for {
		d.mu.Lock()
		if len(d.follow) == 0 {
			d.mu.Unlock()
			return
		}
		o := heap.Pop(&d.follow).(op)
		d.mu.Unlock()
		d.exec(c, o, phaseClosed, 0, time.Now())
	}
}

package netsim

import (
	"fmt"
	"math"

	"nodeselect/internal/sim"
)

// Host simulates a timeshared processor. Active tasks advance under
// processor sharing: with k active tasks on a host of relative speed s,
// each task progresses at rate s/k CPU-seconds per second. This is the
// scheduling model implied by the paper's cpu = 1/(1+loadavg) formula
// ("the processor will be equally shared by those processes and the user
// application process").
//
// The host maintains two exponentially-decayed run-queue averages — one
// over all tasks and one over background tasks only — so measurement can
// exclude the application's own load.
type Host struct {
	net  *Network
	node int

	tasks      []*Task
	lastAdv    float64 // time tasks' remaining work was last advanced
	completion *sim.Event

	loadAll loadAverage
	loadBG  loadAverage
}

// cpuEps is the residual CPU demand, in seconds of reference-speed work,
// below which a task counts as complete. It absorbs floating-point residue
// on long simulations the same way bitEps does for flows.
const cpuEps = 1e-9

func newHost(n *Network, node int) *Host {
	return &Host{net: n, node: node}
}

// Node returns the topology node this host simulates.
func (h *Host) Node() int { return h.node }

// RunQueue returns the instantaneous number of active tasks; with
// backgroundOnly true, only background tasks are counted.
func (h *Host) RunQueue(backgroundOnly bool) int {
	if !backgroundOnly {
		return len(h.tasks)
	}
	k := 0
	for _, t := range h.tasks {
		if t.class == Background {
			k++
		}
	}
	return k
}

// LoadAvg returns the exponentially-decayed run-queue average.
func (h *Host) LoadAvg(backgroundOnly bool) float64 {
	now := h.net.Now()
	if backgroundOnly {
		return h.loadBG.value(now)
	}
	return h.loadAll.value(now)
}

// speed returns the host's relative processing speed.
func (h *Host) speed() float64 { return h.net.graph.Node(h.node).Speed }

// Task is a unit of CPU work executing on a host.
type Task struct {
	host      *Host
	remaining float64 // CPU-seconds at unit speed
	class     Class
	done      func()
	finished  bool
	cancelled bool
}

// Class returns the task's class.
func (t *Task) Class() Class { return t.class }

// Remaining returns the CPU-seconds of work left (at reference speed),
// advanced to the current simulation time.
func (t *Task) Remaining() float64 {
	t.host.advance()
	return t.remaining
}

// Done reports whether the task has completed.
func (t *Task) Done() bool { return t.finished }

// StartTask begins demand CPU-seconds of work (measured at reference unit
// speed) on the given node. done, which may be nil, fires when the work
// completes. The demand must be positive.
func (n *Network) StartTask(node int, demand float64, cls Class, done func()) *Task {
	if demand <= 0 || math.IsNaN(demand) || math.IsInf(demand, 0) {
		panic(fmt.Sprintf("netsim: task demand %v must be positive and finite", demand))
	}
	h := n.hosts[node]
	h.advance()
	t := &Task{host: h, remaining: demand, class: cls, done: done}
	h.tasks = append(h.tasks, t)
	h.noteQueueChange()
	h.reschedule()
	return t
}

// Cancel aborts a task; its done callback never fires. Cancelling a
// completed or already-cancelled task is a no-op.
func (t *Task) Cancel() {
	if t.finished || t.cancelled {
		return
	}
	t.cancelled = true
	h := t.host
	h.advance()
	h.removeTask(t)
	h.noteQueueChange()
	h.reschedule()
}

// advance accrues progress on all tasks for the time elapsed since the last
// advance, at the processor-sharing rate that was in force.
func (h *Host) advance() {
	now := h.net.Now()
	dt := now - h.lastAdv
	if dt <= 0 {
		h.lastAdv = now
		return
	}
	if k := len(h.tasks); k > 0 {
		rate := h.speed() / float64(k)
		for _, t := range h.tasks {
			t.remaining -= rate * dt
			if t.remaining < cpuEps {
				t.remaining = 0
			}
		}
	}
	h.lastAdv = now
}

// reschedule recomputes the next task-completion event.
func (h *Host) reschedule() {
	h.net.engine.Cancel(h.completion)
	h.completion = nil
	if len(h.tasks) == 0 {
		return
	}
	// Earliest completion is the task with least remaining work; under
	// processor sharing all tasks progress at the same rate.
	minRemaining := math.Inf(1)
	for _, t := range h.tasks {
		if t.remaining < minRemaining {
			minRemaining = t.remaining
		}
	}
	rate := h.speed() / float64(len(h.tasks))
	delay := minRemaining / rate
	h.completion = h.net.engine.After(delay, "task-done", h.onCompletion)
}

// onCompletion retires every task that has run out of work.
func (h *Host) onCompletion() {
	h.advance()
	var finished []*Task
	kept := h.tasks[:0]
	for _, t := range h.tasks {
		if t.remaining <= cpuEps {
			t.finished = true
			finished = append(finished, t)
		} else {
			kept = append(kept, t)
		}
	}
	h.tasks = kept
	if len(finished) == 0 && len(h.tasks) > 0 {
		// Rounding left the due task with sub-epsilon residue that the
		// clock cannot resolve; retire the least-remaining task.
		due := 0
		for i, t := range h.tasks {
			if t.remaining < h.tasks[due].remaining {
				due = i
			}
		}
		t := h.tasks[due]
		t.finished = true
		t.remaining = 0
		h.tasks = append(h.tasks[:due], h.tasks[due+1:]...)
		finished = append(finished, t)
	}
	h.noteQueueChange()
	h.reschedule()
	for _, t := range finished {
		if t.done != nil {
			t.done()
		}
	}
}

// removeTask deletes a task from the active list, preserving order.
func (h *Host) removeTask(t *Task) {
	for i, other := range h.tasks {
		if other == t {
			h.tasks = append(h.tasks[:i], h.tasks[i+1:]...)
			return
		}
	}
}

// noteQueueChange feeds the current run-queue lengths into both load
// averages.
func (h *Host) noteQueueChange() {
	now := h.net.Now()
	h.loadAll.observe(now, float64(h.RunQueue(false)), h.net.cfg.window())
	h.loadBG.observe(now, float64(h.RunQueue(true)), h.net.cfg.window())
}

// loadAverage is an exponentially-decayed average of a piecewise-constant
// signal, updated lazily: between observations the signal is assumed
// constant at its last observed value, which lets the decay be applied
// exactly at observation or query time.
type loadAverage struct {
	avg        float64
	level      float64 // current signal value
	stamp      float64 // time of last update
	lastWindow float64 // decay window from the most recent observe
	primed     bool
}

// observe advances the average to time now under the previous level, then
// switches to the new level.
func (l *loadAverage) observe(now, level, window float64) {
	l.advanceTo(now, window)
	l.level = level
	l.primed = true
}

// value advances the average to time now under the current level (using
// the window from the most recent observe) and returns it.
func (l *loadAverage) value(now float64) float64 {
	l.advanceTo(now, l.lastWindow)
	return l.avg
}

func (l *loadAverage) advanceTo(now, window float64) {
	if window > 0 {
		l.lastWindow = window
	}
	if !l.primed {
		l.stamp = now
		return
	}
	dt := now - l.stamp
	if dt <= 0 {
		return
	}
	w := l.lastWindow
	if w <= 0 {
		w = 60
	}
	decay := math.Exp(-dt / w)
	l.avg = l.avg*decay + l.level*(1-decay)
	l.stamp = now
}

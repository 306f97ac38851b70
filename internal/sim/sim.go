// Package sim is a minimal discrete-event simulation kernel: a simulated
// clock and an event heap with deterministic FIFO tie-breaking. The
// S-MAC/AODV baseline stack runs on it; the polling scheme itself is
// slot-synchronous and does not need event granularity.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Engine owns the simulated clock and the pending event queue. The zero
// value is ready to use.
type Engine struct {
	now     time.Duration
	seq     int64
	pending eventHeap
	stopped bool
}

type event struct {
	at     time.Duration
	seq    int64 // FIFO tie-break for simultaneous events
	fn     func()
	cancel *bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() time.Duration { return e.now }

// Timer cancels a scheduled event.
type Timer struct{ cancelled *bool }

// Cancel prevents the event from firing; safe to call multiple times and
// after the event has fired.
func (t Timer) Cancel() {
	if t.cancelled != nil {
		*t.cancelled = true
	}
}

// Schedule enqueues fn to run after delay (>= 0) of simulated time and
// returns a Timer that can cancel it.
func (e *Engine) Schedule(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	cancelled := new(bool)
	ev := &event{at: e.now + delay, seq: e.seq, fn: fn, cancel: cancelled}
	e.seq++
	heap.Push(&e.pending, ev)
	return Timer{cancelled: cancelled}
}

// At enqueues fn at the absolute simulated time t (>= Now).
func (e *Engine) At(t time.Duration, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: cannot schedule in the past (%v < %v)", t, e.now))
	}
	return e.Schedule(t-e.now, fn)
}

// Stop makes Run return after the currently executing event.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in time order until the queue drains or the clock
// would pass `until` (events at exactly `until` still run). It returns the
// number of events executed.
func (e *Engine) Run(until time.Duration) int {
	e.stopped = false
	executed := 0
	for len(e.pending) > 0 && !e.stopped {
		ev := e.pending[0]
		if ev.at > until {
			break
		}
		heap.Pop(&e.pending)
		if *ev.cancel {
			continue
		}
		if ev.at < e.now {
			panic("sim: event heap went backwards")
		}
		e.now = ev.at
		ev.fn()
		executed++
	}
	if e.now < until && !e.stopped {
		e.now = until
	}
	return executed
}

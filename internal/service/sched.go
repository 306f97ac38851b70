package service

import (
	"container/heap"
	"context"
	"math"
	"sync"
	"time"
)

// Job classes, in dispatch-priority order. The class partitions the
// ready queue: every due interactive job runs before any due batch job,
// which runs before any due background job. Within a class, ties break
// on the spec's numeric priority (higher first), then earliest deadline
// (EDF — jobs with a deadline beat jobs without), then submission order.
const (
	ClassInteractive = "interactive"
	ClassBatch       = "batch"
	ClassBackground  = "background"
)

// classRank maps a class name to its dispatch rank (lower runs first).
// The empty class is ClassBatch — the legacy default.
func classRank(class string) int {
	switch class {
	case ClassInteractive:
		return 0
	case ClassBackground:
		return 2
	default:
		return 1
	}
}

// schedEntry is one queued job inside the scheduler. Entries live in
// exactly one of the two heaps: parked (NextRun in the future, ordered
// by NextRun) or ready (due now, ordered by dispatch priority).
type schedEntry struct {
	id       string
	class    int    // classRank
	priority int    // spec priority, higher first
	deadline int64  // unix nanos; 0 = none (sorts after any real deadline)
	nextRun  int64  // unix nanos; due once nextRun <= now
	seq      uint64 // submission order, FIFO tie-break

	ri, pi int // index in ready/parked heap, -1 when absent
}

// edf returns the deadline with "none" mapped to +inf so EDF ordering
// can compare int64s directly.
func (e *schedEntry) edf() int64 {
	if e.deadline == 0 {
		return math.MaxInt64
	}
	return e.deadline
}

// dispatchLess is the ready-queue ordering: class, priority, EDF, FIFO.
func dispatchLess(a, b *schedEntry) bool {
	if a.class != b.class {
		return a.class < b.class
	}
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	if ad, bd := a.edf(), b.edf(); ad != bd {
		return ad < bd
	}
	return a.seq < b.seq
}

// readyHeap orders due entries by dispatchLess.
type readyHeap []*schedEntry

func (h readyHeap) Len() int           { return len(h) }
func (h readyHeap) Less(i, k int) bool { return dispatchLess(h[i], h[k]) }
func (h readyHeap) Swap(i, k int)      { h[i], h[k] = h[k], h[i]; h[i].ri = i; h[k].ri = k }
func (h *readyHeap) Push(x any)        { e := x.(*schedEntry); e.ri = len(*h); *h = append(*h, e) }
func (h *readyHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.ri = -1
	*h = old[:n-1]
	return e
}

// parkedHeap orders future entries by NextRun, then dispatchLess.
type parkedHeap []*schedEntry

func (h parkedHeap) Len() int { return len(h) }
func (h parkedHeap) Less(i, k int) bool {
	if h[i].nextRun != h[k].nextRun {
		return h[i].nextRun < h[k].nextRun
	}
	return dispatchLess(h[i], h[k])
}
func (h parkedHeap) Swap(i, k int) { h[i], h[k] = h[k], h[i]; h[i].pi = i; h[k].pi = k }
func (h *parkedHeap) Push(x any)   { e := x.(*schedEntry); e.pi = len(*h); *h = append(*h, e) }
func (h *parkedHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.pi = -1
	*h = old[:n-1]
	return e
}

// jobScheduler replaces the old FIFO channel: a two-heap priority queue
// with time-based parking. Push places an entry; next blocks until an
// entry is due and returns the highest-priority one. Entries whose
// NextRun lies in the future wait in the parked heap and are promoted to
// the ready heap when their time comes, so a backoff-parked retry or a
// recurring job costs no busy worker.
type jobScheduler struct {
	mu      sync.Mutex
	now     func() time.Time // injectable clock for tests
	limit   int              // queue-depth bound for non-forced pushes; 0 = unbounded
	entries map[string]*schedEntry
	ready   readyHeap
	parked  parkedHeap
	seq     uint64
	closed  bool
	// wake is closed and replaced whenever the queue contents change, so
	// blocked next() callers re-evaluate (same pattern as feed.changed).
	wake chan struct{}
}

func newJobScheduler(limit int) *jobScheduler {
	return &jobScheduler{
		now:     time.Now,
		limit:   limit,
		entries: make(map[string]*schedEntry),
		wake:    make(chan struct{}),
	}
}

// pushReq carries the scheduling facts of one job into push.
type pushReq struct {
	id       string
	class    string
	priority int
	deadline time.Time // zero = none
	nextRun  time.Time // zero = due immediately
}

// push enqueues (or re-enqueues) a job. Non-forced pushes respect the
// depth limit and fail with ErrQueueFull; forced pushes (crash-recovery
// re-queues, retry backoffs, recurrences, resurrections — entries that
// conceptually already own a slot) always land. Pushing an id already
// present reschedules it in place.
func (s *jobScheduler) push(r pushReq, force bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStopped
	}
	if e := s.entries[r.id]; e != nil {
		s.unlink(e)
	} else if !force && s.limit > 0 && len(s.entries) >= s.limit {
		return ErrQueueFull
	}
	s.seq++
	e := &schedEntry{
		id:       r.id,
		class:    classRank(r.class),
		priority: r.priority,
		seq:      s.seq,
		ri:       -1,
		pi:       -1,
	}
	if !r.deadline.IsZero() {
		e.deadline = r.deadline.UnixNano()
	}
	now := s.now()
	if r.nextRun.IsZero() || !r.nextRun.After(now) {
		e.nextRun = now.UnixNano()
		heap.Push(&s.ready, e)
	} else {
		e.nextRun = r.nextRun.UnixNano()
		heap.Push(&s.parked, e)
	}
	s.entries[r.id] = e
	s.wakeLocked()
	return nil
}

// full reports whether a non-forced push of a new job would fail with
// ErrQueueFull. A closed scheduler is never full, so a stopped manager
// keeps answering ErrStopped. The answer can go stale at once; push
// checks again.
func (s *jobScheduler) full() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed && s.limit > 0 && len(s.entries) >= s.limit
}

// remove drops a queued entry (cancel of a queued, backoff-parked or
// breaker-parked job). Reports whether the id was present.
func (s *jobScheduler) remove(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[id]
	if e == nil {
		return false
	}
	s.unlink(e)
	delete(s.entries, id)
	s.wakeLocked()
	return true
}

// unlink detaches e from whichever heap holds it. Caller holds s.mu and
// is responsible for the entries map.
func (s *jobScheduler) unlink(e *schedEntry) {
	if e.ri >= 0 {
		heap.Remove(&s.ready, e.ri)
	}
	if e.pi >= 0 {
		heap.Remove(&s.parked, e.pi)
	}
}

// depth returns the number of queued (not yet dispatched) jobs.
func (s *jobScheduler) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// close wakes every blocked next() caller with ok=false. Pending entries
// stay queued in their manifests' durable state; a restart re-queues
// them through Recover.
func (s *jobScheduler) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.wakeLocked()
}

// wakeLocked must run under s.mu.
func (s *jobScheduler) wakeLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// promoteLocked moves every due parked entry to the ready heap. Must run
// under s.mu.
func (s *jobScheduler) promoteLocked(now time.Time) {
	n := now.UnixNano()
	for len(s.parked) > 0 && s.parked[0].nextRun <= n {
		e := heap.Pop(&s.parked).(*schedEntry)
		heap.Push(&s.ready, e)
	}
}

// next blocks until a job is due (or ctx is done / the scheduler is
// closed) and returns its dispatch snapshot. The returned nextRun is
// when the job became due, so callers can observe scheduling delay.
func (s *jobScheduler) next(ctx context.Context) (id string, nextRun time.Time, ok bool) {
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return "", time.Time{}, false
		}
		now := s.now()
		s.promoteLocked(now)
		if len(s.ready) > 0 {
			e := heap.Pop(&s.ready).(*schedEntry)
			delete(s.entries, e.id)
			s.mu.Unlock()
			return e.id, time.Unix(0, e.nextRun), true
		}
		var timer *time.Timer
		var due <-chan time.Time
		if len(s.parked) > 0 {
			timer = time.NewTimer(time.Unix(0, s.parked[0].nextRun).Sub(now))
			due = timer.C
		}
		wake := s.wake
		s.mu.Unlock()

		select {
		case <-ctx.Done():
			if timer != nil {
				timer.Stop()
			}
			return "", time.Time{}, false
		case <-wake:
			if timer != nil {
				timer.Stop()
			}
		case <-due:
		}
	}
}

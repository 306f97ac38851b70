package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/backoff"
)

// fakeClock is an adjustable time source for scheduler/breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// popAll drains every currently-ready entry in dispatch order.
func popAll(t *testing.T, s *jobScheduler, n int) []string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var out []string
	for i := 0; i < n; i++ {
		id, _, ok := s.next(ctx)
		if !ok {
			t.Fatalf("next returned !ok after %d pops (want %d)", i, n)
		}
		out = append(out, id)
	}
	return out
}

// TestSchedulerDispatchOrder pins the ready-queue ordering: class band
// first (interactive > batch > background), then numeric priority (higher
// first), then earliest deadline (jobs with deadlines beat jobs without),
// then submission order.
func TestSchedulerDispatchOrder(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := newJobScheduler(0)
	s.now = clk.now

	deadline := clk.t.Add(time.Minute)
	later := clk.t.Add(time.Hour)
	pushes := []pushReq{
		{id: "bg", class: ClassBackground},
		{id: "batch-fifo-1", class: ClassBatch},
		{id: "batch-fifo-2", class: ""}, // empty class = batch
		{id: "batch-deadline-late", class: ClassBatch, deadline: later},
		{id: "batch-deadline", class: ClassBatch, deadline: deadline},
		{id: "batch-hipri", class: ClassBatch, priority: 7},
		{id: "inter-low", class: ClassInteractive, priority: -3},
		{id: "inter", class: ClassInteractive},
	}
	for _, r := range pushes {
		if err := s.push(r, false); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		"inter",               // interactive band, priority 0
		"inter-low",           // interactive band, priority -3
		"batch-hipri",         // batch band, priority 7
		"batch-deadline",      // batch, pri 0, earliest deadline
		"batch-deadline-late", // batch, pri 0, later deadline
		"batch-fifo-1",        // batch, pri 0, no deadline, FIFO
		"batch-fifo-2",
		"bg", // background band last
	}
	got := popAll(t, s, len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

// TestSchedulerParking: an entry with a future NextRun is not dispatched
// before its time, and becomes dispatchable once the clock passes it —
// ahead of lower-priority entries that were ready earlier.
func TestSchedulerParking(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := newJobScheduler(0)
	s.now = clk.now

	if err := s.push(pushReq{id: "parked", class: ClassInteractive, nextRun: clk.t.Add(time.Hour)}, false); err != nil {
		t.Fatal(err)
	}
	// Not due: next must block until the context gives up.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if id, _, ok := s.next(ctx); ok {
		t.Fatalf("parked entry %q dispatched before its time", id)
	}
	cancel()
	if got := s.depth(); got != 1 {
		t.Fatalf("depth after blocked next = %d, want 1", got)
	}

	// Advance past the park and add a background entry; the push wakes
	// next, which must promote and prefer the interactive entry.
	clk.advance(2 * time.Hour)
	if err := s.push(pushReq{id: "bg", class: ClassBackground}, false); err != nil {
		t.Fatal(err)
	}
	if got := popAll(t, s, 2); got[0] != "parked" || got[1] != "bg" {
		t.Fatalf("post-promotion order %v, want [parked bg]", got)
	}
}

// TestSchedulerLimit pins the backpressure contract: non-forced pushes
// beyond the limit fail with ErrQueueFull, forced pushes (recovery,
// retries, recurrences) always land, and re-pushing a queued id
// reschedules in place without consuming a second slot.
func TestSchedulerLimit(t *testing.T) {
	s := newJobScheduler(2)
	if err := s.push(pushReq{id: "a"}, false); err != nil {
		t.Fatal(err)
	}
	if err := s.push(pushReq{id: "b"}, false); err != nil {
		t.Fatal(err)
	}
	if err := s.push(pushReq{id: "c"}, false); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third push: %v, want ErrQueueFull", err)
	}
	// Re-push of a present id is a reschedule, not a new slot.
	if err := s.push(pushReq{id: "a", priority: 5}, false); err != nil {
		t.Fatalf("re-push: %v", err)
	}
	if got := s.depth(); got != 2 {
		t.Fatalf("depth after re-push = %d, want 2", got)
	}
	// Forced pushes ignore the limit.
	if err := s.push(pushReq{id: "c"}, true); err != nil {
		t.Fatalf("forced push: %v", err)
	}
	if got := s.depth(); got != 3 {
		t.Fatalf("depth after forced push = %d, want 3", got)
	}
	// The rescheduled "a" now outranks b and c.
	if got := popAll(t, s, 3); got[0] != "a" {
		t.Fatalf("pop order %v, want a first", got)
	}
}

// TestSchedulerRemove: removal works in both heaps and double-remove
// reports absence.
func TestSchedulerRemove(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := newJobScheduler(0)
	s.now = clk.now
	if err := s.push(pushReq{id: "ready"}, false); err != nil {
		t.Fatal(err)
	}
	if err := s.push(pushReq{id: "parked", nextRun: clk.t.Add(time.Hour)}, false); err != nil {
		t.Fatal(err)
	}
	if !s.remove("parked") || !s.remove("ready") {
		t.Fatal("remove of present entries reported absent")
	}
	if s.remove("ready") {
		t.Fatal("double remove reported present")
	}
	if got := s.depth(); got != 0 {
		t.Fatalf("depth = %d, want 0", got)
	}
}

// TestSchedulerClose: close unblocks waiters with ok=false and rejects
// further pushes with ErrStopped.
func TestSchedulerClose(t *testing.T) {
	s := newJobScheduler(0)
	done := make(chan bool, 1)
	go func() {
		_, _, ok := s.next(context.Background())
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	s.close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("next returned ok=true after close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("next did not unblock on close")
	}
	if err := s.push(pushReq{id: "x"}, true); !errors.Is(err, ErrStopped) {
		t.Fatalf("push after close: %v, want ErrStopped", err)
	}
}

// TestRetryDelaySchedule pins the backoff formula of a resolved retry
// block: doubling from the base, capped, with deterministic jitter in
// [0, 50%) — the same (seed, n) always yields the same delay.
func TestRetryDelaySchedule(t *testing.T) {
	spec := Spec{Retry: &RetrySpec{MaxAttempts: 10, BackoffMS: 100, MaxBackoffMS: 800}}
	p := spec.retryPolicy().backoff
	seed := backoff.SeedString("job-a")
	base := []time.Duration{100, 200, 400, 800, 800, 800} // ms, capped at 800
	for i, b := range base {
		n := i + 1
		want := b * time.Millisecond
		d := p.Delay(n, seed)
		if d < want || d >= want+want/2 {
			t.Fatalf("delay(%d) = %s outside [%s, %s)", n, d, want, want+want/2)
		}
		if again := p.Delay(n, seed); again != d {
			t.Fatalf("delay(%d) not deterministic: %s then %s", n, d, again)
		}
	}
	// Different seeds de-synchronize the jitter (with overwhelming
	// probability some attempt differs).
	other := backoff.SeedString("job-b")
	if other == seed {
		t.Fatal("distinct job IDs hashed to the same jitter seed")
	}
	same := true
	for n := 1; n <= 6; n++ {
		if p.Delay(n, seed) != p.Delay(n, other) {
			same = false
		}
	}
	if same {
		t.Fatal("two jobs replay identical jittered schedules")
	}
}

// TestBreakerLifecycle drives one fingerprint through the full state
// machine: closed → open at the threshold, parked during cooldown,
// half-open probe after it, re-open on probe failure, closed on probe
// success.
func TestBreakerLifecycle(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	bs := newBreakerSet(2, time.Minute, nil)
	bs.now = clk.now
	const fp = "fp1"

	if bs.failure(fp) {
		t.Fatal("breaker open after 1 failure with threshold 2")
	}
	if w := bs.gate(fp); w != 0 {
		t.Fatalf("closed breaker gated for %s", w)
	}
	if !bs.failure(fp) {
		t.Fatal("breaker not open at threshold")
	}
	if w := bs.gate(fp); w <= 0 || w > time.Minute {
		t.Fatalf("open breaker gate = %s, want (0, 1m]", w)
	}
	// Other fingerprints are unaffected.
	if w := bs.gate("other"); w != 0 {
		t.Fatalf("unrelated fingerprint gated for %s", w)
	}

	// Cooldown elapses: the next gate admits a half-open probe.
	clk.advance(2 * time.Minute)
	if w := bs.gate(fp); w != 0 {
		t.Fatalf("post-cooldown gate = %s, want 0", w)
	}
	// Probe fails: straight back to open, full cooldown.
	if !bs.failure(fp) {
		t.Fatal("half-open probe failure did not re-open")
	}
	if w := bs.gate(fp); w <= 0 {
		t.Fatal("re-opened breaker does not gate")
	}

	// Second probe succeeds: breaker closes and stays closed.
	clk.advance(2 * time.Minute)
	if w := bs.gate(fp); w != 0 {
		t.Fatalf("second post-cooldown gate = %s, want 0", w)
	}
	bs.success(fp)
	if w := bs.gate(fp); w != 0 {
		t.Fatal("closed breaker gates after success")
	}
	// The streak reset with the close: one more failure must not trip it.
	if bs.failure(fp) {
		t.Fatal("breaker re-opened on first failure after close")
	}
}

// TestBreakerDisabled: a negative threshold turns the whole mechanism
// off.
func TestBreakerDisabled(t *testing.T) {
	bs := newBreakerSet(-1, time.Minute, nil)
	for i := 0; i < 20; i++ {
		if bs.failure("fp") {
			t.Fatal("disabled breaker opened")
		}
	}
	if w := bs.gate("fp"); w != 0 {
		t.Fatalf("disabled breaker gated for %s", w)
	}
}

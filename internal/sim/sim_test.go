package sim

import (
	"testing"
	"time"
)

func TestRunExecutesInOrder(t *testing.T) {
	var e Engine
	var got []int
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	n := e.Run(10 * time.Second)
	if n != 3 {
		t.Fatalf("executed %d events", n)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("order = %v", got)
		}
	}
	if e.Now() != 10*time.Second {
		t.Fatalf("Now = %v, should advance to horizon", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.Run(time.Second)
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events out of FIFO order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	var times []time.Duration
	e.Schedule(time.Second, func() {
		times = append(times, e.Now())
		e.Schedule(time.Second, func() {
			times = append(times, e.Now())
		})
	})
	e.Run(5 * time.Second)
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Fatalf("times = %v", times)
	}
}

func TestCancel(t *testing.T) {
	var e Engine
	fired := false
	tm := e.Schedule(time.Second, func() { fired = true })
	tm.Cancel()
	tm.Cancel() // idempotent
	e.Run(2 * time.Second)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestRunHorizonLeavesLaterEvents(t *testing.T) {
	var e Engine
	fired := false
	e.Schedule(5*time.Second, func() { fired = true })
	e.Run(2 * time.Second)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now = %v", e.Now())
	}
	e.Run(5 * time.Second)
	if !fired {
		t.Fatal("event should fire on the extended run")
	}
}

func TestStop(t *testing.T) {
	var e Engine
	count := 0
	e.Schedule(time.Second, func() { count++; e.Stop() })
	e.Schedule(2*time.Second, func() { count++ })
	e.Run(10 * time.Second)
	if count != 1 {
		t.Fatalf("count = %d; Stop should halt the loop", count)
	}
	// A later Run resumes.
	e.Run(10 * time.Second)
	if count != 2 {
		t.Fatalf("count = %d after resume", count)
	}
}

func TestAtAbsolute(t *testing.T) {
	var e Engine
	var at time.Duration
	e.Schedule(time.Second, func() {
		e.At(4*time.Second, func() { at = e.Now() })
	})
	e.Run(10 * time.Second)
	if at != 4*time.Second {
		t.Fatalf("At fired at %v", at)
	}
}

func TestPanicsOnBadTimes(t *testing.T) {
	var e Engine
	mustPanic(t, func() { e.Schedule(-time.Second, func() {}) })
	e.Schedule(2*time.Second, func() {
		mustPanic(t, func() { e.At(time.Second, func() {}) })
	})
	e.Run(3 * time.Second)
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestManyEventsStress(t *testing.T) {
	var e Engine
	const n = 10000
	count := 0
	for i := 0; i < n; i++ {
		e.Schedule(time.Duration(i%97)*time.Millisecond, func() { count++ })
	}
	e.Run(time.Second)
	if count != n {
		t.Fatalf("count = %d want %d", count, n)
	}
}

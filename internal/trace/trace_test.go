package trace

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/radio"
)

func fig2Run(t *testing.T, loss core.LossFn) (*core.Schedule, []core.Request) {
	t.Helper()
	reqs := []core.Request{
		{ID: 1, Route: []int{2, 1, 0}},
		{ID: 2, Route: []int{3, 0}},
	}
	o := radio.NewTableOracle()
	o.AllowPair(
		radio.Transmission{From: 2, To: 1},
		radio.Transmission{From: 3, To: 0},
	)
	sched, _, err := core.Greedy(reqs, core.Options{Oracle: o, Loss: loss})
	if err != nil {
		t.Fatal(err)
	}
	return sched, reqs
}

func TestFromScheduleLossless(t *testing.T) {
	sched, reqs := fig2Run(t, nil)
	l := FromSchedule(sched, reqs, nil)
	if got := l.CountKind(KindTx); got != 3 {
		t.Fatalf("tx events = %d want 3", got)
	}
	if got := l.CountKind(KindLoss); got != 0 {
		t.Fatalf("loss events = %d", got)
	}
	if got := l.CountKind(KindArrival); got != 2 {
		t.Fatalf("arrival events = %d want 2", got)
	}
	if got := l.CountKind(KindComplete); got != 2 {
		t.Fatalf("complete events = %d", got)
	}
	// Events come out slot-ordered.
	evs := l.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Slot < evs[i-1].Slot {
			t.Fatal("events out of slot order")
		}
	}
}

func TestFromScheduleWithLoss(t *testing.T) {
	loss := func(slot int, tx radio.Transmission) bool {
		return slot == 0 && tx.From == 3
	}
	sched, reqs := fig2Run(t, loss)
	l := FromSchedule(sched, reqs, loss)
	if got := l.CountKind(KindLoss); got != 1 {
		t.Fatalf("loss events = %d want 1", got)
	}
	// The retried packet still arrives.
	if got := l.CountKind(KindArrival); got != 2 {
		t.Fatalf("arrivals = %d", got)
	}
}

func TestWriteCSV(t *testing.T) {
	sched, reqs := fig2Run(t, nil)
	l := FromSchedule(sched, reqs, nil)
	var b strings.Builder
	if err := l.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "cycle,slot,kind,from,to,request\n") {
		t.Fatalf("csv header wrong:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 1+l.Len() {
		t.Fatalf("csv lines = %d want %d", lines, 1+l.Len())
	}
}

// TestLatencies pins the polling latency a data consumer observes: the
// slots from the cycle's first slot to the packet's arrival at the head,
// as the trace_latency_slots histogram reports it.
func TestLatencies(t *testing.T) {
	sched, reqs := fig2Run(t, nil)
	l := FromSchedule(sched, reqs, nil)
	// S3's packet arrives in slot 0 (latency 1 slot); S2's in slot 1.
	arrival := map[int]int{}
	for _, e := range l.Events() {
		if e.Kind == KindArrival {
			arrival[e.Request] = e.Slot
		}
	}
	if len(arrival) != 2 || arrival[2] != 0 || arrival[1] != 1 {
		t.Fatalf("arrival slots = %v", arrival)
	}
	reg := obs.NewRegistry()
	l.Summarize(reg.Observer())
	for _, s := range reg.Snapshot() {
		if s.Name == MetricLatencySlots && (s.Count != 2 || s.Sum != 3) {
			t.Fatalf("latency histogram: count=%d sum=%v, want 2 packets over 1+2 slots", s.Count, s.Sum)
		}
	}
}

func TestAppendScheduleCycles(t *testing.T) {
	l := &Log{}
	for cycle := 0; cycle < 3; cycle++ {
		sched, reqs := fig2Run(t, nil)
		l.AppendSchedule(cycle, sched, reqs, nil)
	}
	evs := l.Events()
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	// Ordered by cycle.
	for i := 1; i < len(evs); i++ {
		if evs[i].Cycle < evs[i-1].Cycle {
			t.Fatal("events out of cycle order")
		}
	}
	if evs[len(evs)-1].Cycle != 2 {
		t.Fatalf("last cycle = %d", evs[len(evs)-1].Cycle)
	}
	if l.CountKind(KindTx) != 9 { // 3 tx per cycle
		t.Fatalf("tx events = %d", l.CountKind(KindTx))
	}
}

// CountKind returns how many events of the given kind were recorded.
func (l *Log) CountKind(k Kind) int {
	n := 0
	for _, e := range l.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

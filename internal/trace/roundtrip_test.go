package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/radio"
)

func TestWriteCSVRoundTrip(t *testing.T) {
	loss := func(slot int, tx radio.Transmission) bool {
		return slot == 0 && tx.From == 3
	}
	sched, reqs := fig2Run(t, loss)
	l := &Log{}
	l.AppendSchedule(0, sched, reqs, loss)
	l.AppendSchedule(1, sched, reqs, nil)

	var buf bytes.Buffer
	if err := l.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, got := l.Events(), back.Events()
	if len(got) != len(want) {
		t.Fatalf("round-trip lost events: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], want[i])
		}
	}
	// Writing the parsed log again must be byte-identical.
	var buf2 bytes.Buffer
	if err := back.WriteCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatalf("second export differs:\n%s\nvs\n%s", buf.String(), buf2.String())
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"bad header", "slot,cycle,kind,from,to,request\n"},
		{"short row", "cycle,slot,kind,from,to,request\n1,2,tx\n"},
		{"non-numeric", "cycle,slot,kind,from,to,request\n1,x,tx,0,1,2\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("ReadCSV(%q) succeeded", tc.in)
			}
		})
	}
}

func TestReadCSVSkipsBlankLines(t *testing.T) {
	in := "cycle,slot,kind,from,to,request\n0,1,tx,2,1,-1\n\n0,2,arrival,1,0,7\n"
	l, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 {
		t.Fatalf("events = %d", l.Len())
	}
	e := l.Events()[1]
	if e.Kind != KindArrival || e.Slot != 2 || e.Request != 7 {
		t.Fatalf("event = %+v", e)
	}
}

func TestSummarizeBridge(t *testing.T) {
	sched, reqs := fig2Run(t, nil)
	l := FromSchedule(sched, reqs, nil)

	// Nil-safe: no observer, no panic.
	l.Summarize(nil)
	var nilLog *Log
	nilLog.Summarize(nil)

	reg := obs.NewRegistry()
	l.Summarize(reg.Observer())
	byName := map[string]obs.MetricSnapshot{}
	for _, s := range reg.Snapshot() {
		byName[s.Name] = s
	}
	if got := byName[obs.Series(MetricEvents, "kind", "tx")].Value; got != float64(l.CountKind(KindTx)) {
		t.Errorf("tx events = %v, want %d", got, l.CountKind(KindTx))
	}
	if got := byName[obs.Series(MetricEvents, "kind", "arrival")].Value; got != float64(l.CountKind(KindArrival)) {
		t.Errorf("arrival events = %v", got)
	}
	lat := byName[MetricLatencySlots]
	if lat.Count != uint64(l.CountKind(KindArrival)) || lat.Sum <= 0 {
		t.Errorf("latency histogram: count=%d sum=%v", lat.Count, lat.Sum)
	}
}

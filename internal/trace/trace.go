// Package trace records slot-level events of a polling run so operators
// can audit exactly what the cluster head scheduled: which sensors
// transmitted in each slot, where losses struck, when packets arrived.
// Events export as CSV for offline analysis.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
)

// Kind labels one event.
type Kind string

// Event kinds.
const (
	KindTx       Kind = "tx"       // a transmission was scheduled
	KindLoss     Kind = "loss"     // the transmission was lost
	KindArrival  Kind = "arrival"  // the head received a packet
	KindRetry    Kind = "retry"    // a request was re-activated
	KindComplete Kind = "complete" // a request finished
)

// Event is one slot-level record.
type Event struct {
	// Cycle is the duty-cycle index the event belongs to (0 when the
	// producer records a single run).
	Cycle   int
	Slot    int
	Kind    Kind
	From    int // transmitting node (tx/loss), or -1
	To      int // receiving node (tx/loss), or -1
	Request int // request ID, or -1
}

// Log is an append-only event log.
type Log struct {
	events []Event
}

// Add appends an event.
func (l *Log) Add(e Event) { l.events = append(l.events, e) }

// Events returns the log, ordered by cycle, then slot, then insertion.
func (l *Log) Events() []Event {
	out := append([]Event(nil), l.events...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Cycle != out[j].Cycle {
			return out[i].Cycle < out[j].Cycle
		}
		return out[i].Slot < out[j].Slot
	})
	return out
}

// Len returns the number of recorded events.
func (l *Log) Len() int { return len(l.events) }

// WriteCSV exports the log.
func (l *Log) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "cycle,slot,kind,from,to,request"); err != nil {
		return err
	}
	for _, e := range l.Events() {
		if _, err := fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n",
			e.Cycle, e.Slot, e.Kind, e.From, e.To, e.Request); err != nil {
			return err
		}
	}
	return nil
}

// ReadCSV parses a log previously exported with WriteCSV. Together they
// round-trip: ReadCSV(WriteCSV(l)) equals l.Events().
func ReadCSV(r io.Reader) (*Log, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace: empty CSV")
	}
	if got := strings.TrimSpace(sc.Text()); got != "cycle,slot,kind,from,to,request" {
		return nil, fmt.Errorf("trace: unexpected CSV header %q", got)
	}
	l := &Log{}
	line := 1
	for sc.Scan() {
		line++
		row := strings.TrimSpace(sc.Text())
		if row == "" {
			continue
		}
		f := strings.Split(row, ",")
		if len(f) != 6 {
			return nil, fmt.Errorf("trace: line %d: %d fields, want 6", line, len(f))
		}
		var e Event
		var err error
		for i, dst := range []*int{&e.Cycle, &e.Slot, nil, &e.From, &e.To, &e.Request} {
			if dst == nil {
				continue
			}
			if *dst, err = strconv.Atoi(f[i]); err != nil {
				return nil, fmt.Errorf("trace: line %d: field %d: %v", line, i+1, err)
			}
		}
		e.Kind = Kind(f[2])
		l.Add(e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return l, nil
}

// Metric series Summarize emits — the bridge from slot-level traces to the
// obs layer.
const (
	// MetricEvents counts trace events, labeled kind="tx"|"loss"|....
	MetricEvents = "trace_events_total"
	// MetricLatencySlots is a histogram of per-request delivery latency in
	// slots (first slot to arrival), derived from arrival events.
	MetricLatencySlots = "trace_latency_slots"
)

// LatencyBuckets sizes the arrival-latency histogram (slot counts, not
// seconds).
var LatencyBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500}

// RegisterMetrics pre-registers the bridge's series in reg with help text
// and slot-count latency buckets. Summarize works without it — series
// auto-create on first use, but the latency histogram then gets the
// seconds-oriented default buckets.
func RegisterMetrics(reg *obs.Registry) {
	for _, k := range []Kind{KindTx, KindLoss, KindArrival, KindRetry, KindComplete} {
		reg.Counter(obs.Series(MetricEvents, "kind", string(k)), "trace events by kind")
	}
	reg.Histogram(MetricLatencySlots, "per-request delivery latency in slots", LatencyBuckets)
}

// Summarize publishes the log's aggregate view to an observer: one counter
// increment per event by kind, and the arrival latency histogram. A nil
// observer is a no-op, so callers can call this unconditionally.
func (l *Log) Summarize(o obs.Observer) {
	if o == nil || l == nil {
		return
	}
	for _, e := range l.events {
		o.Add(obs.Series(MetricEvents, "kind", string(e.Kind)), 1)
		if e.Kind == KindArrival {
			o.Observe(MetricLatencySlots, float64(e.Slot+1))
		}
	}
}

// AppendSchedule records a schedule's events into the log under the given
// cycle index (see FromSchedule for the event semantics).
func (l *Log) AppendSchedule(cycle int, sched *core.Schedule, reqs []core.Request, loss core.LossFn) {
	sub := FromSchedule(sched, reqs, loss)
	for _, e := range sub.events {
		e.Cycle = cycle
		l.Add(e)
	}
}

// FromSchedule reconstructs a trace from a completed pipelined polling
// schedule plus the loss function it ran under (losses are re-derived
// deterministically, which is why core.LossFn implementations must be
// pure). It records every scheduled transmission, loss, arrival and
// completion.
func FromSchedule(sched *core.Schedule, reqs []core.Request, loss core.LossFn) *Log {
	l := &Log{}
	for s, group := range sched.Slots {
		for _, tx := range group {
			l.Add(Event{Slot: s, Kind: KindTx, From: tx.From, To: tx.To, Request: -1})
			if loss != nil && loss(s, tx) {
				l.Add(Event{Slot: s, Kind: KindLoss, From: tx.From, To: tx.To, Request: -1})
			}
		}
	}
	for _, r := range reqs {
		if done, ok := sched.Completed[r.ID]; ok {
			last := r.Tx(r.Hops() - 1)
			l.Add(Event{Slot: done, Kind: KindArrival, From: last.From, To: last.To, Request: r.ID})
			l.Add(Event{Slot: done, Kind: KindComplete, From: -1, To: -1, Request: r.ID})
		}
	}
	return l
}

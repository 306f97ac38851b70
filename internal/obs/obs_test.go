package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(1)
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("Value = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add must panic")
		}
	}()
	c.Add(-1)
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(4)
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("Value = %v", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != 108 {
		t.Fatalf("Sum = %v", h.Sum())
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	// Cumulative le buckets: <=1 holds {0.5, 1}, <=2 adds 1.5, <=5 adds 5,
	// +Inf adds 100.
	want := []Bucket{{1, 2}, {2, 3}, {5, 4}, {math.Inf(1), 5}}
	got := snap[0].Buckets
	if len(got) != len(want) {
		t.Fatalf("buckets = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestHistogramBoundsSortedDeduped(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{5, 1, 5, 2})
	h.Observe(1.5)
	b := r.Snapshot()[0].Buckets
	if len(b) != 4 { // 1, 2, 5, +Inf
		t.Fatalf("buckets = %+v", b)
	}
	if b[0].Count != 0 || b[1].Count != 1 {
		t.Fatalf("observation landed wrong: %+v", b)
	}
}

func TestSeries(t *testing.T) {
	if got := Series("x_total"); got != "x_total" {
		t.Fatalf("unlabeled = %q", got)
	}
	if got := Series("x_total", "state", "tx", "node", "h1"); got != `x_total{state="tx",node="h1"}` {
		t.Fatalf("labeled = %q", got)
	}
	if got := Series("x", "k", `a"b\c`); got != `x{k="a\"b\\c"}` {
		t.Fatalf("escaped = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("odd kv must panic")
		}
	}()
	Series("x", "k")
}

func TestRegistryGetOrCreateAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("c", "first help")
	c2 := r.Counter("c", "second help")
	if c1 != c2 {
		t.Fatal("same name must return the same counter")
	}
	c1.Add(1)
	if s := r.Snapshot()[0]; s.Help != "first help" || s.Value != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("c", "")
}

func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter(Series("b_total", "k", "z"), "").Add(1)
	r.Counter("a_total", "").Add(1)
	r.Counter(Series("b_total", "k", "a"), "").Add(1)
	snap := r.Snapshot()
	var names []string
	for _, s := range snap {
		names = append(names, s.Name)
	}
	want := []string{"a_total", `b_total{k="a"}`, `b_total{k="z"}`}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("order = %v", names)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("packets_total", "delivered packets").Add(7)
	r.Gauge("active_fraction", "").Set(0.25)
	r.Histogram("lat_seconds", "latency", []float64{0.5, 1}).Observe(0.75)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []struct {
			Name    string   `json:"name"`
			Kind    string   `json:"kind"`
			Value   *float64 `json:"value"`
			Count   *uint64  `json:"count"`
			Sum     *float64 `json:"sum"`
			Buckets []struct {
				LE    string `json:"le"`
				Count uint64 `json:"count"`
			} `json:"buckets"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Metrics) != 3 {
		t.Fatalf("metrics = %d", len(doc.Metrics))
	}
	byName := map[string]int{}
	for i, m := range doc.Metrics {
		byName[m.Name] = i
	}
	if m := doc.Metrics[byName["packets_total"]]; m.Value == nil || *m.Value != 7 {
		t.Fatalf("counter = %+v", m)
	}
	// A zero gauge must still serialize its value (pointer, not omitempty).
	if m := doc.Metrics[byName["active_fraction"]]; m.Value == nil || *m.Value != 0.25 {
		t.Fatalf("gauge = %+v", m)
	}
	h := doc.Metrics[byName["lat_seconds"]]
	if h.Count == nil || *h.Count != 1 || h.Sum == nil || *h.Sum != 0.75 {
		t.Fatalf("histogram = %+v", h)
	}
	if last := h.Buckets[len(h.Buckets)-1]; last.LE != "+Inf" || last.Count != 1 {
		t.Fatalf("+Inf bucket = %+v", last)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(Series("energy_joules_total", "state", "tx"), "energy by state").Add(3)
	r.Counter(Series("energy_joules_total", "state", "rx"), "energy by state").Add(1)
	r.Gauge("active_fraction", "awake fraction").Set(0.5)
	h := r.Histogram(Series("phase_seconds", "phase", "ack"), "phase durations", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# HELP energy_joules_total energy by state\n",
		"# TYPE energy_joules_total counter\n",
		`energy_joules_total{state="rx"} 1` + "\n",
		`energy_joules_total{state="tx"} 3` + "\n",
		"# TYPE active_fraction gauge\n",
		"active_fraction 0.5\n",
		"# TYPE phase_seconds histogram\n",
		`phase_seconds_bucket{phase="ack",le="0.1"} 1` + "\n",
		`phase_seconds_bucket{phase="ack",le="1"} 1` + "\n",
		`phase_seconds_bucket{phase="ack",le="+Inf"} 2` + "\n",
		`phase_seconds_sum{phase="ack"} 2.05` + "\n",
		`phase_seconds_count{phase="ack"} 2` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	// HELP/TYPE once per family even with two labeled series.
	if got := strings.Count(text, "# TYPE energy_joules_total"); got != 1 {
		t.Errorf("TYPE emitted %d times", got)
	}
}

func TestRegistryObserverAutoCreates(t *testing.T) {
	r := NewRegistry()
	o := r.Observer()
	o.Add("c_total", 2)
	o.Set("g", 7)
	o.Observe("h_seconds", 0.2)
	kinds := map[string]Kind{}
	for _, s := range r.Snapshot() {
		kinds[s.Name] = s.Kind
	}
	if kinds["c_total"] != KindCounter || kinds["g"] != KindGauge || kinds["h_seconds"] != KindHistogram {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestConcurrentEmission(t *testing.T) {
	r := NewRegistry()
	o := r.Observer()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				o.Add("c_total", 1)
				o.Observe("h_seconds", 0.001)
				o.Set("g", float64(i))
			}
		}()
	}
	wg.Wait()
	for _, s := range r.Snapshot() {
		switch s.Name {
		case "c_total":
			if s.Value != workers*per {
				t.Errorf("counter lost updates: %v", s.Value)
			}
		case "h_seconds":
			if s.Count != workers*per {
				t.Errorf("histogram lost updates: %d", s.Count)
			}
		}
	}
}

func TestNopAndHelpers(t *testing.T) {
	r := NewRegistry()
	o := r.Observer()
	// Nil-safe: must not panic, must not record.
	ObserveDuration(nil, "d_seconds", time.Second)
	ObserveDuration(o, "d_seconds", 2*time.Second)
	if s := r.Snapshot(); len(s) != 1 || s[0].Sum != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
}

package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/field"
)

func TestTailNeedsTwentySamples(t *testing.T) {
	xs := make([]float64, 12)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, _, ok := tail(xs); ok {
		t.Fatal("tail reported for 12 samples")
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
	}{
		{20, 50},
		{33, 69.7},
		{110, 90.9},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64((i * 7) % tc.n) // a permutation of 0..n-1
		}
		v, pct, ok := tail(xs)
		if !ok {
			t.Fatalf("n=%d: no tail", tc.n)
		}
		if math.Abs(pct-tc.wantPct) > 0.05 {
			t.Errorf("n=%d: percentile %.2f, want %.1f", tc.n, pct, tc.wantPct)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != 10 {
			t.Errorf("n=%d: %d samples beyond the tail, want 10", tc.n, beyond)
		}
	}
}

// A canned job stream as mhpolld serves it: state events around epoch
// events, ids, and one multi-line data field.
const cannedStream = `id: 1
event: state
data: {"id":"j","state":"queued","epoch":0}

id: 2
event: state
data: {"id":"j","state":"running","epoch":0}

id: 3
event: epoch
data: {"epoch":0,"clusters":[]}

id: 4
event: epoch
data: {"epoch":1,
data: "clusters":[]}

id: 5
event: epoch
data: {"epoch":2,"clusters":[]}

id: 6
event: state
data: {"id":"j","state":"done","epoch":3}

`

func TestSSEEpochGaps(t *testing.T) {
	tick := 0.0
	clock := &epochClock{now: func() float64 { tick += 0.5; return tick * tick }}
	var seen []int
	err := followEpochs(strings.NewReader(cannedStream), clock, func(n int) error {
		seen = append(seen, n)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != 0 || seen[2] != 2 {
		t.Fatalf("epoch callbacks %v", seen)
	}
	setup, gaps := clock.setupAndGaps()
	// Arrivals at 0.25, 1 and 2.25 s: setup is the first, gaps the rest.
	if setup != 0.25 || len(gaps) != 2 || gaps[0] != 0.75 || gaps[1] != 1.25 {
		t.Fatalf("setup %v gaps %v", setup, gaps)
	}
}

func TestEpochClockRejectsOutOfOrder(t *testing.T) {
	c := &epochClock{now: func() float64 { return 0 }}
	if err := c.mark(0); err != nil {
		t.Fatal(err)
	}
	if err := c.mark(2); err == nil {
		t.Fatal("epoch 2 accepted after epoch 0")
	}
}

// TestSpecMatchesCode pins BENCHMARK.json to what the program computes:
// every declared metric is computed and nothing undeclared is, and
// every per-layer metric says which declared end-to-end metrics it
// should move on which declared workloads.
func TestSpecMatchesCode(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	wr := &workloadRun{w: &workloads[0], rounds: []*round{{EpochS: []float64{1, 2}, SpanS: 3, HostScale: 1}}}
	if _, err := withUnits(spec.EndToEnd, e2eMetrics(wr)); err != nil {
		t.Error(err)
	}
	got := make(map[string]metricValue)
	for name, v := range layerMetrics(&workloads[1], &round{}, &tracedRun{summary: &field.Summary{}}, &replayRun{}) {
		got[name] = metricValue{Value: number(v)}
	}
	if _, err := withUnits(spec.PerLayer, got); err != nil {
		t.Error(err)
	}
	e2e := make(map[string]bool)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		e2e[m.Name] = true
	}
	declared := make(map[string]bool)
	for _, w := range spec.Workloads {
		declared[w.Name] = true
	}
	for _, m := range spec.PerLayer {
		if _, ok := layerTargets[m.Name]; !ok {
			t.Errorf("%s: no layer target", m.Name)
		}
	}
	for name, lt := range layerTargets {
		if _, ok := got[name]; !ok {
			t.Errorf("layer target for undeclared metric %s", name)
		}
		for _, m := range lt.moves {
			if !e2e[m] {
				t.Errorf("%s moves undeclared end-to-end metric %s", name, m)
			}
		}
		if len(lt.workloads) == 0 {
			t.Errorf("%s: no workloads", name)
		}
		for _, w := range lt.workloads {
			if !declared[w] {
				t.Errorf("%s names undeclared workload %s", name, w)
			}
		}
	}
}

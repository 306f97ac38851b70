package alerting

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

var t0 = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

func tick(i int) time.Time { return t0.Add(time.Duration(i) * time.Second) }

// len returns the retained point count of a series (tests).
func (h *History) len(name string) int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	r := h.series[name]
	if r == nil {
		return 0
	}
	return len(r.pts)
}

func TestHistorySampleKinds(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("jobs_total", "").Add(4)
	reg.Gauge("queue_depth", "").Set(7)
	hst := reg.Histogram(obs.Series("lat_seconds", "ch", "0"), "", []float64{1})
	hst.Observe(0.5)
	hst.Observe(3)

	h := NewHistory(8)
	h.Sample(reg, tick(0))

	for name, want := range map[string]float64{
		"jobs_total":                4,
		"queue_depth":               7,
		`lat_seconds_count{ch="0"}`: 2,
		`lat_seconds_sum{ch="0"}`:   3.5,
	} {
		pts := h.Query(name, time.Time{}, 0)
		if len(pts) != 1 || pts[0].V != want {
			t.Fatalf("%s = %+v, want one point of %g", name, pts, want)
		}
	}
}

func TestRingWraparound(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("g", "")
	h := NewHistory(4)
	for i := 0; i < 10; i++ {
		g.Set(float64(i))
		h.Sample(reg, tick(i))
	}
	if n := h.len("g"); n != 4 {
		t.Fatalf("retained %d points, want capacity 4", n)
	}
	// Oldest-first and only the newest 4 survive.
	pts := h.Query("g", time.Time{}, 0)
	for i, p := range pts {
		if want := float64(6 + i); p.V != want || !p.T.Equal(tick(6+i)) {
			t.Fatalf("point %d = %+v, want V=%g T=%v", i, p, want, tick(6+i))
		}
	}
	// A query window straddling the evicted range returns the retained
	// tail only — sample 2 is gone, samples 6..9 answer.
	straddle := h.Query("g", tick(2), 0)
	if len(straddle) != 4 || straddle[0].V != 6 {
		t.Fatalf("straddling query = %+v, want retained tail from V=6", straddle)
	}
}

func TestQueryStep(t *testing.T) {
	reg := obs.NewRegistry()
	g := reg.Gauge("g", "")
	h := NewHistory(64)
	for i := 0; i < 30; i++ {
		g.Set(float64(i))
		h.Sample(reg, tick(i))
	}
	pts := h.Query("g", time.Time{}, 10*time.Second)
	if len(pts) != 3 {
		t.Fatalf("step=10s returned %d points, want 3: %+v", len(pts), pts)
	}
	for i, p := range pts {
		if p.V != float64(i*10) {
			t.Fatalf("downsampled point %d = %+v, want first of its bucket (V=%d)", i, p, i*10)
		}
	}
}

func TestCounterRateWithReset(t *testing.T) {
	h := NewHistory(16)
	// Hand-record a counter that climbs, resets, climbs again:
	// 0, 5, 10, 2, 4 over 4 seconds → positive increase 5+5+2 = 12 → 3/s.
	for i, v := range []float64{0, 5, 10, 2, 4} {
		h.mu.Lock()
		h.record("c_total", obs.KindCounter, Point{T: tick(i), V: v})
		h.mu.Unlock()
	}
	rate, ok := h.Rate("c_total", tick(4), time.Minute)
	if !ok || math.Abs(rate-3) > 1e-9 {
		t.Fatalf("counter rate = %v (ok=%v), want 3/s with the reset clamped", rate, ok)
	}
	// A gauge with the same points reports the raw slope (4-0)/4 = 1.
	for i, v := range []float64{0, 5, 10, 2, 4} {
		h.mu.Lock()
		h.record("g", obs.KindGauge, Point{T: tick(i), V: v})
		h.mu.Unlock()
	}
	rate, ok = h.Rate("g", tick(4), time.Minute)
	if !ok || math.Abs(rate-1) > 1e-9 {
		t.Fatalf("gauge rate = %v (ok=%v), want 1/s raw slope", rate, ok)
	}
	// Negative gauge slope is allowed — that is the worker-drop signal.
	for i, v := range []float64{3, 3, 1} {
		h.mu.Lock()
		h.record("w", obs.KindGauge, Point{T: tick(i), V: v})
		h.mu.Unlock()
	}
	rate, ok = h.Rate("w", tick(2), time.Minute)
	if !ok || rate >= 0 {
		t.Fatalf("dropping gauge rate = %v (ok=%v), want negative", rate, ok)
	}
}

func TestLatestStaleness(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("g", "").Set(1)
	h := NewHistory(8)
	h.Sample(reg, tick(0))
	if _, ok := h.Latest("g", tick(0), 10*time.Second); !ok {
		t.Fatal("fresh point reported stale")
	}
	if _, ok := h.Latest("g", tick(60), 10*time.Second); ok {
		t.Fatal("stale point reported fresh")
	}
	if _, ok := h.Latest("missing", tick(0), 0); ok {
		t.Fatal("missing series reported present")
	}
}

// TestHistoryMemoryBounded pins the retention contract over a long run:
// capacity × series points, regardless of sample count (the 1k-epoch
// acceptance bound).
func TestHistoryMemoryBounded(t *testing.T) {
	reg := obs.NewRegistry()
	for i := 0; i < 20; i++ {
		reg.Counter(fmt.Sprintf("c%02d_total", i), "").Add(1)
	}
	h := NewHistory(32)
	for i := 0; i < 2000; i++ {
		h.Sample(reg, tick(i))
	}
	names := h.Names()
	if len(names) != 20 {
		t.Fatalf("%d series, want 20", len(names))
	}
	total := 0
	for _, n := range names {
		if got := h.len(n); got > 32 {
			t.Fatalf("series %s retains %d > capacity 32", n, got)
		} else {
			total += got
		}
	}
	if total > 32*20 {
		t.Fatalf("total retained %d exceeds capacity×series %d", total, 32*20)
	}
}

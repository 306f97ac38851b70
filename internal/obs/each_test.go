package obs

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// TestEachMatchesSnapshot pins Each as the single iteration seam: same
// series, same order, same values as Snapshot.
func TestEachMatchesSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "").Add(3)
	r.Gauge("a_gauge", "").Set(7)
	h := r.Histogram("c_seconds", "", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)

	var visited []MetricSnapshot
	r.Each(func(s MetricSnapshot) {
		if len(s.Buckets) > 0 {
			s.Buckets = append([]Bucket(nil), s.Buckets...)
		}
		visited = append(visited, s)
	})
	if !reflect.DeepEqual(visited, r.Snapshot()) {
		t.Fatalf("Each visits %+v\nSnapshot returns %+v", visited, r.Snapshot())
	}
}

// TestHistogramSnapshotCumulative pins the le-bucket semantics rate math
// depends on: each bucket count includes every smaller bucket, and the
// +Inf bucket equals the total count — so diffing two snapshots bucket by
// bucket yields per-bucket rates directly.
func TestHistogramSnapshotCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d_seconds", "", []float64{1, 2, 3})
	for _, v := range []float64{0.5, 1.5, 1.6, 2.5, 10} {
		h.Observe(v)
	}
	var snap MetricSnapshot
	r.Each(func(s MetricSnapshot) { snap = s })
	want := []Bucket{{LE: 1, Count: 1}, {LE: 2, Count: 3}, {LE: 3, Count: 4}, {LE: math.Inf(1), Count: 5}}
	if !reflect.DeepEqual(snap.Buckets, want) {
		t.Fatalf("buckets = %+v, want cumulative %+v", snap.Buckets, want)
	}
	if snap.Buckets[len(snap.Buckets)-1].Count != snap.Count {
		t.Fatalf("+Inf bucket %d != count %d", snap.Buckets[len(snap.Buckets)-1].Count, snap.Count)
	}
}

// TestEachSeesLateRegistration pins the order-cache invalidation: a
// series registered after a prior iteration shows up in the next one, in
// sorted position.
func TestEachSeesLateRegistration(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "").Add(1)
	names := func() []string {
		var out []string
		r.Each(func(s MetricSnapshot) { out = append(out, s.Name) })
		return out
	}
	if got := names(); !reflect.DeepEqual(got, []string{"m_total"}) {
		t.Fatalf("first pass %v", got)
	}
	r.Counter("a_total", "").Add(1)
	if got := names(); !reflect.DeepEqual(got, []string{"a_total", "m_total"}) {
		t.Fatalf("after late registration %v, want sorted [a_total m_total]", got)
	}
}

// TestEachAllocsBounded verifies the visitor avoids the full-slice
// allocation Snapshot pays: steady-state Each over a counter/gauge-only
// registry allocates nothing.
func TestEachAllocsBounded(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"a_total", "b_total", "c_total", "d_total"} {
		r.Counter(n, "").Add(1)
	}
	r.Gauge("e_gauge", "").Set(1)
	r.Each(func(MetricSnapshot) {}) // warm the order cache
	allocs := testing.AllocsPerRun(100, func() {
		r.Each(func(MetricSnapshot) {})
	})
	if allocs > 0 {
		t.Fatalf("Each allocated %.1f objects/run over counters+gauges, want 0", allocs)
	}
}

func TestClockSeam(t *testing.T) {
	var c Clock
	if d := time.Since(c.Now()); d < 0 || d > time.Minute {
		t.Fatalf("nil Clock.Now not wall clock: %v", d)
	}
	fixed := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	c = func() time.Time { return fixed }
	if !c.Now().Equal(fixed) {
		t.Fatalf("Clock.Now = %v, want %v", c.Now(), fixed)
	}
}

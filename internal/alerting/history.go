// Package alerting is mhpolld's fleet-observability layer over the obs
// metrics kernel: a fixed-capacity time-series history sampled from a
// Registry, declarative alert rules evaluated against that history, and
// notification dispatch (webhook + log sinks, SSE stream). The paper's
// energy argument plays out over a network's whole lifetime — first
// stranded sensor, relay-death cascades, plan-cache miss storms — and
// those are mid-run inflection points a /metrics scrape can only see if
// something is watching continuously. This package is that something.
package alerting

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Point is one retained sample of a series.
type Point struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// ring is one series' fixed-capacity circular buffer. It grows by append
// until capacity, then overwrites the oldest point, so a series costs at
// most cap points no matter how long the daemon runs.
type ring struct {
	kind obs.Kind
	pts  []Point
	head int // index of the oldest point once the ring is full
}

func (r *ring) push(p Point) {
	if len(r.pts) < cap(r.pts) {
		r.pts = append(r.pts, p)
		return
	}
	r.pts[r.head] = p
	r.head = (r.head + 1) % len(r.pts)
}

// at returns the i-th oldest retained point, i in [0, len).
func (r *ring) at(i int) Point {
	return r.pts[(r.head+i)%len(r.pts)]
}

// History is the ring-buffer time-series store: one ring per series,
// fed by Sample ticks over a Registry. Memory is bounded by
// capacity × live series count; evicted points are gone (queries
// straddling the horizon return only what is retained).
type History struct {
	mu       sync.RWMutex
	capacity int
	series   map[string]*ring
}

// DefaultCapacity retains an hour of samples at the daemon's default
// 5-second interval.
const DefaultCapacity = 720

// NewHistory returns an empty store retaining up to capacity points per
// series (<= 0 means DefaultCapacity).
func NewHistory(capacity int) *History {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &History{capacity: capacity, series: make(map[string]*ring)}
}

// Capacity returns the per-series retention limit.
func (h *History) Capacity() int { return h.capacity }

// histSeries splices a _count/_sum suffix into a possibly-labeled
// histogram series name: ("x_seconds{c=\"0\"}", "_count") →
// "x_seconds_count{c=\"0\"}", matching the Prometheus exposition names.
func histSeries(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// Sample appends one point per series from the registry, stamped now.
// Counters and gauges record their value; histograms record their
// cumulative count and sum as two derived counter series (name_count,
// name_sum), which is exactly what rate rules need.
func (h *History) Sample(reg *obs.Registry, now time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	reg.Each(func(s obs.MetricSnapshot) {
		switch s.Kind {
		case obs.KindCounter, obs.KindGauge:
			h.record(s.Name, s.Kind, Point{T: now, V: s.Value})
		case obs.KindHistogram:
			h.record(histSeries(s.Name, "_count"), obs.KindCounter, Point{T: now, V: float64(s.Count)})
			h.record(histSeries(s.Name, "_sum"), obs.KindCounter, Point{T: now, V: s.Sum})
		}
	})
}

// record must run under h.mu.
func (h *History) record(name string, kind obs.Kind, p Point) {
	r := h.series[name]
	if r == nil {
		r = &ring{kind: kind, pts: make([]Point, 0, h.capacity)}
		h.series[name] = r
	}
	r.push(p)
}

// Names lists the retained series, sorted.
func (h *History) Names() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]string, 0, len(h.series))
	for n := range h.series {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Query returns the retained points of a series with T >= since, oldest
// first. A step > 0 downsamples: only the first retained point of each
// step-aligned bucket is returned. Points evicted by the ring are simply
// absent — a window straddling the horizon yields the retained tail.
func (h *History) Query(name string, since time.Time, step time.Duration) []Point {
	h.mu.RLock()
	defer h.mu.RUnlock()
	r := h.series[name]
	if r == nil {
		return nil
	}
	var out []Point
	lastBucket := int64(-1 << 62)
	for i := 0; i < len(r.pts); i++ {
		p := r.at(i)
		if p.T.Before(since) {
			continue
		}
		if step > 0 {
			b := p.T.UnixNano() / int64(step)
			if b == lastBucket {
				continue
			}
			lastBucket = b
		}
		out = append(out, p)
	}
	return out
}

// Latest returns the newest retained point of a series no older than
// maxAge before now (maxAge <= 0 disables the staleness check).
func (h *History) Latest(name string, now time.Time, maxAge time.Duration) (Point, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	r := h.series[name]
	if r == nil || len(r.pts) == 0 {
		return Point{}, false
	}
	p := r.at(len(r.pts) - 1)
	if maxAge > 0 && p.T.Before(now.Add(-maxAge)) {
		return Point{}, false
	}
	return p, true
}

// Rate returns the per-second rate of change of a series over the
// retained points with T >= now-window. Counter series sum only the
// positive deltas (a decrease is a process restart, not a negative
// rate); gauge series use the plain first-to-last slope, which may be
// negative — that is how a "dist_workers_live dropped" rule sees a
// worker die. Returns false with fewer than two points in the window.
func (h *History) Rate(name string, now time.Time, window time.Duration) (float64, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	r := h.series[name]
	if r == nil || len(r.pts) < 2 {
		return 0, false
	}
	since := now.Add(-window)
	first := -1
	for i := 0; i < len(r.pts); i++ {
		if !r.at(i).T.Before(since) {
			first = i
			break
		}
	}
	if first < 0 || first == len(r.pts)-1 {
		return 0, false
	}
	fp, lp := r.at(first), r.at(len(r.pts)-1)
	dt := lp.T.Sub(fp.T).Seconds()
	if dt <= 0 {
		return 0, false
	}
	if r.kind == obs.KindCounter {
		var inc float64
		prev := fp.V
		for i := first + 1; i < len(r.pts); i++ {
			v := r.at(i).V
			if d := v - prev; d > 0 {
				inc += d
			}
			prev = v
		}
		return inc / dt, true
	}
	return (lp.V - fp.V) / dt, true
}

// Package obs is the repo's cycle-level observability layer: a small,
// dependency-free metrics kernel the simulators thread their internals
// through. The paper's whole argument is about where time and energy go
// inside a duty cycle (Fig. 7a active time, Fig. 7c lifetime), so the
// runtimes emit phase durations, slot counts, re-polls and energy-by-state
// as a simulation runs instead of only end-of-run aggregates.
//
// Three metric kinds live in a named Registry:
//
//   - Counter: a monotonically increasing float64 (packets, joules);
//   - Gauge: a settable float64 (last observed value of anything);
//   - Histogram: fixed upper-bound buckets plus sum and count (durations).
//
// All metric operations are lock-free atomics, so one registry can absorb
// emissions from every worker of a parallel sweep. Snapshots serialize to
// JSON (Registry.WriteJSON) and to the Prometheus text exposition format
// (Registry.WritePrometheus).
//
// Series names follow the Prometheus convention, optionally carrying a
// label set: "cluster_energy_joules_total{state=\"tx\"}" — build them with
// Series. Everything before the '{' is the family; HELP/TYPE lines are
// emitted once per family.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the metric types in a registry.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// atomicFloat is a float64 updated with compare-and-swap on its bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct{ v atomicFloat }

// Add increases the counter; negative deltas panic (counters only go up).
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		panic("obs: counter decreased")
	}
	c.v.add(delta)
}

// Value returns the current total.
func (c *Counter) Value() float64 { return c.v.load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.v.store(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.load() }

// Histogram counts observations into fixed upper-bound (le) buckets and
// tracks their sum, Prometheus style. The bucket holding an observation v
// is the first bound >= v; larger observations land in the implicit +Inf
// bucket.
type Histogram struct {
	bounds []float64       // sorted upper bounds, exclusive of +Inf
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	sum    atomicFloat
	count  atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// DefBuckets are the default duration buckets in seconds, spanning the
// sub-millisecond poll broadcasts up to multi-second sweep cells.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Series renders a full series name from a family and label key/value
// pairs: Series("x_total", "state", "tx") == `x_total{state="tx"}`.
// Label values are escaped per the Prometheus text format.
func Series(family string, kv ...string) string {
	if len(kv) == 0 {
		return family
	}
	if len(kv)%2 != 0 {
		panic("obs: Series needs key/value pairs")
	}
	var b strings.Builder
	b.WriteString(family)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// splitSeries separates a series name into its family and the raw label
// body (without braces, "" when unlabeled).
func splitSeries(name string) (family, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// metric is one registered series.
type metric struct {
	name   string // full series name, labels included
	family string
	labels string // raw label body, "" when unlabeled
	kind   Kind
	help   string

	c *Counter
	g *Gauge
	h *Histogram
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. Get-or-create lookups are mutex-guarded; the returned
// handles update lock-free, so resolve them once and emit freely.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	// order caches copies of the series, sorted family then labels, that
	// Snapshot and Each iterate. A registration that adds a series or
	// brings one its first help invalidates it. Once built it is never
	// mutated (replaced wholesale), so iterators may keep it without
	// holding mu and read no field a registration writes.
	order []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

func (r *Registry) lookup(name string, kind Kind) *metric {
	m, ok := r.metrics[name]
	if !ok {
		family, labels := splitSeries(name)
		m = &metric{name: name, family: family, labels: labels, kind: kind}
		r.metrics[name] = m
		r.order = nil // sorted iteration order is stale
		return m
	}
	if m.kind != kind {
		panic(fmt.Sprintf("obs: series %q registered as %s, requested as %s", name, m.kind, kind))
	}
	return m
}

// setHelp keeps the first non-empty help of m. Scrapes read help from
// the sorted copies, so a change invalidates them.
func (r *Registry) setHelp(m *metric, help string) {
	if m.help == "" && help != "" {
		m.help = help
		r.order = nil
	}
}

// Counter returns the counter registered under name, creating it on first
// use. help is kept from the first non-empty value. Requesting an existing
// series as a different kind panics.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, KindCounter)
	if m.c == nil {
		m.c = &Counter{}
	}
	r.setHelp(m, help)
	return m.c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, KindGauge)
	if m.g == nil {
		m.g = &Gauge{}
	}
	r.setHelp(m, help)
	return m.g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds on first use (nil means DefBuckets).
// Bounds are sorted and deduplicated; later calls reuse the first bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, KindHistogram)
	if m.h == nil {
		if bounds == nil {
			bounds = DefBuckets
		}
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		uniq := bs[:0]
		for i, b := range bs {
			if i == 0 || b != bs[i-1] {
				uniq = append(uniq, b)
			}
		}
		m.h = &Histogram{bounds: uniq, counts: make([]atomic.Uint64, len(uniq)+1)}
	}
	r.setHelp(m, help)
	return m.h
}

// Bucket is one cumulative histogram bucket of a snapshot.
type Bucket struct {
	LE    float64 `json:"le"` // upper bound; +Inf encodes as JSON null-safe math.Inf
	Count uint64  `json:"count"`
}

// MetricSnapshot is the frozen state of one series.
type MetricSnapshot struct {
	Name    string   `json:"name"`
	Kind    Kind     `json:"kind"`
	Help    string   `json:"help,omitempty"`
	Value   float64  `json:"value,omitempty"`   // counter, gauge
	Count   uint64   `json:"count,omitempty"`   // histogram
	Sum     float64  `json:"sum,omitempty"`     // histogram
	Buckets []Bucket `json:"buckets,omitempty"` // histogram, cumulative
}

// sorted returns the cached family-then-labels copies of the series,
// rebuilding them if registration invalidated them. The returned slice
// is immutable.
func (r *Registry) sorted() []metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.order == nil {
		ms := make([]metric, 0, len(r.metrics))
		for _, m := range r.metrics {
			ms = append(ms, *m)
		}
		sort.Slice(ms, func(i, j int) bool {
			if ms[i].family != ms[j].family {
				return ms[i].family < ms[j].family
			}
			return ms[i].labels < ms[j].labels
		})
		r.order = ms
	}
	return r.order
}

// Each visits every series in deterministic (family, then label body)
// order without materializing a []MetricSnapshot — the seam the history
// sampler ticks through so a per-interval sample costs no garbage
// proportional to the registry size. Histogram buckets are cumulative
// (Prometheus le semantics), matching Snapshot; the visited snapshot's
// Buckets slice is scratch reused across calls to fn, so callers that
// retain bucket data must copy it before returning.
func (r *Registry) Each(fn func(MetricSnapshot)) {
	var scratch []Bucket
	order := r.sorted()
	for i := range order {
		m := &order[i]
		s := MetricSnapshot{Name: m.name, Kind: m.kind, Help: m.help}
		switch m.kind {
		case KindCounter:
			s.Value = m.c.Value()
		case KindGauge:
			s.Value = m.g.Value()
		case KindHistogram:
			s.Count = m.h.Count()
			s.Sum = m.h.Sum()
			scratch = scratch[:0]
			var cum uint64
			for i, b := range m.h.bounds {
				cum += m.h.counts[i].Load()
				scratch = append(scratch, Bucket{LE: b, Count: cum})
			}
			cum += m.h.counts[len(m.h.bounds)].Load()
			scratch = append(scratch, Bucket{LE: math.Inf(1), Count: cum})
			s.Buckets = scratch
		}
		fn(s)
	}
}

// Snapshot freezes every series, sorted by family then label body so
// output is deterministic regardless of registration interleaving.
// Histogram buckets are cumulative, so bucket-level rate math (t1 - t0
// per bucket) works directly on successive snapshots.
func (r *Registry) Snapshot() []MetricSnapshot {
	out := make([]MetricSnapshot, 0, len(r.sorted()))
	r.Each(func(s MetricSnapshot) {
		if len(s.Buckets) > 0 {
			s.Buckets = append([]Bucket(nil), s.Buckets...) // Each's scratch
		}
		out = append(out, s)
	})
	return out
}

// jsonSnapshot wraps the metric list for the -metrics file format.
type jsonSnapshot struct {
	Metrics []jsonMetric `json:"metrics"`
}

// jsonMetric mirrors MetricSnapshot with +Inf-safe bucket bounds (JSON has
// no Inf literal, so the last bucket's bound serializes as "+Inf").
type jsonMetric struct {
	Name    string       `json:"name"`
	Kind    Kind         `json:"kind"`
	Help    string       `json:"help,omitempty"`
	Value   *float64     `json:"value,omitempty"`
	Count   *uint64      `json:"count,omitempty"`
	Sum     *float64     `json:"sum,omitempty"`
	Buckets []jsonBucket `json:"buckets,omitempty"`
}

type jsonBucket struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// WriteJSON serializes a snapshot of the registry as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	var js jsonSnapshot
	for _, s := range r.Snapshot() {
		jm := jsonMetric{Name: s.Name, Kind: s.Kind, Help: s.Help}
		switch s.Kind {
		case KindCounter, KindGauge:
			v := s.Value
			jm.Value = &v
		case KindHistogram:
			c, sum := s.Count, s.Sum
			jm.Count = &c
			jm.Sum = &sum
			for _, b := range s.Buckets {
				jm.Buckets = append(jm.Buckets, jsonBucket{LE: formatLE(b.LE), Count: b.Count})
			}
		}
		js.Metrics = append(js.Metrics, jm)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(js)
}

func formatLE(le float64) string {
	if math.IsInf(le, 1) {
		return "+Inf"
	}
	return formatFloat(le)
}

func formatFloat(v float64) string {
	// %g keeps bucket bounds like 0.0025 readable and round-trippable.
	return fmt.Sprintf("%g", v)
}

// WritePrometheus serializes a snapshot in the Prometheus text exposition
// format (version 0.0.4): one HELP/TYPE pair per family, then the samples.
// Histograms expand to _bucket{le=...} series plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snaps := r.Snapshot()
	lastFamily := ""
	for _, s := range snaps {
		family, labels := splitSeries(s.Name)
		if family != lastFamily {
			lastFamily = family
			if s.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", family, s.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, s.Kind); err != nil {
				return err
			}
		}
		var err error
		switch s.Kind {
		case KindCounter, KindGauge:
			_, err = fmt.Fprintf(w, "%s %s\n", s.Name, formatFloat(s.Value))
		case KindHistogram:
			for _, b := range s.Buckets {
				_, err = fmt.Fprintf(w, "%s_bucket{%s} %d\n",
					family, joinLabels(labels, `le="`+formatLE(b.LE)+`"`), b.Count)
				if err != nil {
					return err
				}
			}
			if _, err = fmt.Fprintf(w, "%s_sum%s %s\n", family, braced(labels), formatFloat(s.Sum)); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s_count%s %d\n", family, braced(labels), s.Count)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func joinLabels(existing, extra string) string {
	if existing == "" {
		return extra
	}
	return existing + "," + extra
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

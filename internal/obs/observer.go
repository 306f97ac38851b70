package obs

import (
	"sync"
	"time"
)

// Observer is the hook interface the runtimes call at instrumentation
// points. A nil Observer is valid everywhere: every instrumented site
// guards with a single nil check, so the hook costs nothing when unset.
//
// Names are full series names (see Series); the three methods map onto the
// three metric kinds of a Registry.
type Observer interface {
	// Add increases the counter series by delta.
	Add(name string, delta float64)
	// Set replaces the gauge series' value.
	Set(name string, v float64)
	// Observe records one histogram sample.
	Observe(name string, v float64)
}

// ObserveDuration records d as seconds on the histogram series — the
// convention every duration metric in the repo follows. Nil-safe.
func ObserveDuration(o Observer, name string, d time.Duration) {
	if o != nil {
		o.Observe(name, d.Seconds())
	}
}

// RegistryObserver adapts a Registry into an Observer: Add resolves (and
// on first use creates) a Counter, Set a Gauge, Observe a Histogram with
// DefBuckets — pre-register via Registry.Histogram to pick other bounds.
// Resolved handles are cached in a sync.Map, so steady-state emission is
// one lock-free map hit plus an atomic update and is safe from any number
// of goroutines.
type RegistryObserver struct {
	reg      *Registry
	counters sync.Map // name -> *Counter
	gauges   sync.Map // name -> *Gauge
	hists    sync.Map // name -> *Histogram
}

// Observer returns an Observer recording into the registry.
func (r *Registry) Observer() *RegistryObserver {
	return &RegistryObserver{reg: r}
}

// Add implements Observer.
func (o *RegistryObserver) Add(name string, delta float64) {
	c, ok := o.counters.Load(name)
	if !ok {
		c, _ = o.counters.LoadOrStore(name, o.reg.Counter(name, ""))
	}
	c.(*Counter).Add(delta)
}

// Set implements Observer.
func (o *RegistryObserver) Set(name string, v float64) {
	g, ok := o.gauges.Load(name)
	if !ok {
		g, _ = o.gauges.LoadOrStore(name, o.reg.Gauge(name, ""))
	}
	g.(*Gauge).Set(v)
}

// Observe implements Observer.
func (o *RegistryObserver) Observe(name string, v float64) {
	h, ok := o.hists.Load(name)
	if !ok {
		h, _ = o.hists.LoadOrStore(name, o.reg.Histogram(name, "", nil))
	}
	h.(*Histogram).Observe(v)
}

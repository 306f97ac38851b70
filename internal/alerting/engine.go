package alerting

import (
	"context"
	"io"
	"log"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/obs"
	"repro/internal/sse"
)

// Config configures an Engine.
type Config struct {
	// Registry is sampled into the history store every Interval and
	// receives the engine's own metrics (required).
	Registry *obs.Registry
	// Interval is the sample-and-evaluate tick; 0 means 5s.
	Interval time.Duration
	// Capacity is the per-series history ring size; 0 means
	// DefaultCapacity.
	Capacity int
	// Clock stamps samples and drives for-duration dwell; nil means the
	// system clock.
	Clock obs.Clock
	// Sinks receive firing/resolved notifications, each with retry +
	// dedup handled by the dispatcher. A log sink is always appended.
	Sinks []Sink
	// RetryPolicy is the per-sink redelivery schedule; zero fields
	// default to 1s base / 30s cap.
	RetryPolicy backoff.Policy
	// MaxAttempts bounds deliveries per sink per notification; 0 means 5.
	MaxAttempts int
	// Log receives lifecycle logging; nil discards.
	Log *log.Logger
}

// Engine owns the observability loop: sample the registry into the
// history rings, advance every alert rule's state machine, stream
// transitions over SSE and hand firing/resolved events to the
// notification dispatcher. One Engine per daemon; Run ticks it.
type Engine struct {
	reg      *obs.Registry
	obs      obs.Observer
	interval time.Duration
	clock    obs.Clock
	log      *log.Logger

	hist *History
	feed *sse.Feed
	disp *dispatcher

	// mu serializes rule edits with evaluation ticks (the evaluator and
	// the dispatcher's dedup table are not self-synchronized).
	mu sync.Mutex
	ev *evaluator
}

// New builds an engine; call Run to start it ticking.
func New(cfg Config) *Engine {
	lg := cfg.Log
	if lg == nil {
		lg = log.New(io.Discard, "", 0)
	}
	interval := cfg.Interval
	if interval <= 0 {
		interval = 5 * time.Second
	}
	o := cfg.Registry.Observer()
	sinks := append(append([]Sink(nil), cfg.Sinks...), &LogSink{Log: lg})
	return &Engine{
		reg:      cfg.Registry,
		obs:      o,
		interval: interval,
		clock:    cfg.Clock,
		log:      lg,
		hist:     NewHistory(cfg.Capacity),
		feed:     sse.NewFeed(),
		disp:     newDispatcher(sinks, cfg.RetryPolicy, cfg.MaxAttempts, o, lg, cfg.Clock),
		ev:       newEvaluator(interval),
	}
}

// SetRules validates and installs a batch (all-or-nothing).
func (e *Engine) SetRules(rules []Rule) error {
	for i := range rules {
		if err := rules[i].Validate(); err != nil {
			return err
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.clock.Now().UTC()
	for i := range rules {
		e.ev.upsert(rules[i], now)
	}
	e.obs.Set(MetricRulesActive, float64(len(e.ev.rules)))
	return nil
}

// Remove drops a rule by name; reports whether it existed.
func (e *Engine) Remove(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	ok := e.ev.remove(name)
	e.obs.Set(MetricRulesActive, float64(len(e.ev.rules)))
	return ok
}

// Rules lists the installed rules, name order.
func (e *Engine) Rules() []Rule {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Rule, 0, len(e.ev.rules))
	for _, name := range e.ev.names() {
		out = append(out, e.ev.rules[name].rule)
	}
	return out
}

// Alerts snapshots every rule's current alert state, name order.
func (e *Engine) Alerts() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ev.alerts()
}

// alertEvent is the SSE payload of one transition.
type alertEvent struct {
	From string `json:"from"`
	Alert
}

// Tick runs one sample-and-evaluate step stamped now: history sample,
// rule evaluation, SSE publication of every transition, notification
// enqueue for firings and resolutions, gauge refresh. Exported so tests
// (and deterministic drivers) can crank the engine on a fake clock.
func (e *Engine) Tick(now time.Time) {
	e.hist.Sample(e.reg, now)
	e.mu.Lock()
	trs := e.ev.eval(e.hist, now)
	for _, tr := range trs {
		a := tr.Alert
		e.feed.Publish("alert", alertEvent{From: tr.From, Alert: a})
		e.obs.Add(obs.Series(MetricTransitions, "to", a.State), 1)
		switch a.State {
		case StateFiring, StateResolved:
			n := Notification{
				Rule:     a.Rule,
				Type:     a.State,
				Severity: a.Severity,
				Series:   a.Series,
				Value:    a.Value,
				Labels:   a.Labels,
				At:       now,
			}
			if a.FiredAt != nil {
				n.FiredAt = *a.FiredAt
			}
			// "firing"/"resolved" double as the notification type; the
			// resolved type rides the same FiredAt incident key.
			e.disp.enqueue(n)
		}
		e.log.Printf("alert %s: %s → %s (value %g)", a.Rule, tr.From, a.State, a.Value)
	}
	firing := e.ev.firing()
	rules := len(e.ev.rules)
	e.mu.Unlock()

	e.obs.Add(MetricSamples, 1)
	e.obs.Set(MetricAlertsFiring, float64(firing))
	e.obs.Set(MetricRulesActive, float64(rules))
	e.obs.Set(MetricHistorySeries, float64(len(e.hist.Names())))
}

// Run ticks the engine every Interval and drains the notification
// dispatcher until ctx is done. The SSE feed stays open for the process
// lifetime — alert streams end when the daemon does.
func (e *Engine) Run(ctx context.Context) {
	go e.disp.run(ctx)
	t := time.NewTicker(e.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			e.Tick(e.clock.Now().UTC())
		}
	}
}

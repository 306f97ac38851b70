package alerting

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"
)

// Expr kinds — what a rule's condition computes over its series.
const (
	// ExprThreshold compares the latest sample against Value with Op.
	ExprThreshold = "threshold"
	// ExprAbsent is true when the series has no sample newer than the
	// window (a worker stopped reporting, a job stopped epoching).
	ExprAbsent = "absent"
	// ExprRate compares the per-second rate of change over the window
	// against Value with Op. Counter series clamp resets; gauge series
	// use the raw slope, so Op "lt" with a negative Value catches drops.
	ExprRate = "rate"
)

// Comparison operators for threshold and rate expressions.
const (
	OpGT = "gt"
	OpGE = "ge"
	OpLT = "lt"
	OpLE = "le"
)

// Alert severities.
const (
	SeverityWarning  = "warning"
	SeverityCritical = "critical"
)

// Expr is a rule's condition over one series of the history store.
type Expr struct {
	// Series is the full series name, labels included — exactly as it
	// appears in /metrics (histograms via their derived _count/_sum).
	Series string `json:"series"`
	// Kind selects the computation: threshold, absent or rate.
	Kind string `json:"kind"`
	// Op compares the computed value against Value (threshold, rate).
	Op string `json:"op,omitempty"`
	// Value is the comparison bound.
	Value float64 `json:"value,omitempty"`
	// WindowMS is the lookback: the rate window, or the absence
	// staleness bound. 0 means 5× the engine's sample interval.
	WindowMS int64 `json:"window_ms,omitempty"`
}

// Rule is one declarative alert: an expression, how long it must hold
// (for_ms) before the alert fires, and routing metadata.
type Rule struct {
	Name string `json:"name"`
	Expr Expr   `json:"expr"`
	// ForMS is the pending dwell: the expression must hold this long
	// before the alert transitions pending → firing. 0 fires immediately.
	ForMS int64 `json:"for_ms,omitempty"`
	// Severity defaults to "warning".
	Severity string            `json:"severity,omitempty"`
	Labels   map[string]string `json:"labels,omitempty"`
}

// forDuration returns the rule's pending dwell.
func (r *Rule) forDuration() time.Duration { return time.Duration(r.ForMS) * time.Millisecond }

// window returns the expression lookback, defaulting to 5× the sample
// interval so threshold staleness and rate windows survive a missed tick
// or two without flapping.
func (r *Rule) window(interval time.Duration) time.Duration {
	if r.Expr.WindowMS > 0 {
		return time.Duration(r.Expr.WindowMS) * time.Millisecond
	}
	return 5 * interval
}

// severity returns the rule's severity, defaulted.
func (r *Rule) severity() string {
	if r.Severity == "" {
		return SeverityWarning
	}
	return r.Severity
}

// Validate checks a rule is well-formed; the HTTP door and the rules
// file loader both call it, so a bad rule can never reach the evaluator.
func (r *Rule) Validate() error {
	if r.Name == "" {
		return errors.New("alerting: rule needs a name")
	}
	if r.Expr.Series == "" {
		return fmt.Errorf("alerting: rule %q needs expr.series", r.Name)
	}
	switch r.Expr.Kind {
	case ExprThreshold, ExprRate:
		switch r.Expr.Op {
		case OpGT, OpGE, OpLT, OpLE:
		default:
			return fmt.Errorf("alerting: rule %q: bad op %q (want gt|ge|lt|le)", r.Name, r.Expr.Op)
		}
	case ExprAbsent:
		if r.Expr.Op != "" {
			return fmt.Errorf("alerting: rule %q: absent takes no op", r.Name)
		}
	default:
		return fmt.Errorf("alerting: rule %q: bad expr kind %q (want threshold|absent|rate)", r.Name, r.Expr.Kind)
	}
	if r.ForMS < 0 {
		return fmt.Errorf("alerting: rule %q: negative for_ms", r.Name)
	}
	if r.Expr.WindowMS < 0 {
		return fmt.Errorf("alerting: rule %q: negative window_ms", r.Name)
	}
	switch r.Severity {
	case "", SeverityWarning, SeverityCritical:
	default:
		return fmt.Errorf("alerting: rule %q: bad severity %q (want warning|critical)", r.Name, r.Severity)
	}
	return nil
}

// compare applies op to (computed, bound).
func compare(op string, v, bound float64) bool {
	switch op {
	case OpGT:
		return v > bound
	case OpGE:
		return v >= bound
	case OpLT:
		return v < bound
	case OpLE:
		return v <= bound
	}
	return false
}

// rulesFile is the -rules file / POST wire shape.
type rulesFile struct {
	Rules []Rule `json:"rules"`
}

// LoadRulesFile reads and validates a JSON rules file: {"rules": [...]}.
func LoadRulesFile(path string) ([]Rule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf rulesFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("alerting: rules file %s: %w", path, err)
	}
	if len(rf.Rules) == 0 {
		return nil, fmt.Errorf("alerting: rules file %s: no rules", path)
	}
	for i := range rf.Rules {
		if err := rf.Rules[i].Validate(); err != nil {
			return nil, fmt.Errorf("alerting: rules file %s: %w", path, err)
		}
	}
	return rf.Rules, nil
}

// DefaultRules are the operational alerts every mhpolld ships with: the
// lifetime inflection points the paper's protocols are evaluated on
// (stranded sensors, death-rate spikes) plus the daemon's own health
// signals (plan-cache miss storms, a distributed fleet losing workers).
// Operators override by name via -rules or POST /v1/alerts/rules.
func DefaultRules() []Rule {
	return []Rule{
		{
			// The first stranded sensor is the paper's "first node
			// effectively dead" moment: a live sensor with no relaying
			// path to its head.
			Name:     "stranded-sensors",
			Expr:     Expr{Series: "field_stranded_sensors", Kind: ExprThreshold, Op: OpGT, Value: 0},
			ForMS:    30_000,
			Severity: SeverityWarning,
			Labels:   map[string]string{"subsystem": "field"},
		},
		{
			// A fault-death rate spike is a relay-death cascade in
			// progress — deaths feeding more deaths as paths collapse.
			Name:     "fault-death-spike",
			Expr:     Expr{Series: `field_deaths_total{cause="fault"}`, Kind: ExprRate, Op: OpGT, Value: 5, WindowMS: 60_000},
			ForMS:    10_000,
			Severity: SeverityCritical,
			Labels:   map[string]string{"subsystem": "field"},
		},
		{
			// Plan-cache misses climbing faster than ~10/s means churn is
			// invalidating routing plans wholesale — the cache no longer
			// amortizes the delta search.
			Name:     "plan-cache-miss-storm",
			Expr:     Expr{Series: "field_plan_cache_misses_total", Kind: ExprRate, Op: OpGT, Value: 10, WindowMS: 60_000},
			ForMS:    30_000,
			Severity: SeverityWarning,
			Labels:   map[string]string{"subsystem": "routing"},
		},
		{
			// A negative slope on the live-worker gauge is a coordinator
			// writing workers off — shard reassignment is underway.
			Name:     "dist-worker-drop",
			Expr:     Expr{Series: "dist_workers_live", Kind: ExprRate, Op: OpLT, Value: 0, WindowMS: 60_000},
			Severity: SeverityCritical,
			Labels:   map[string]string{"subsystem": "dist"},
		},
		{
			// Epoch-latency skew (max/min seconds-per-cluster over one
			// barrier pass's calls) holding above 3 means one straggler is
			// pacing every barrier. Placement never migrates away from a
			// live worker, so an operator should replace it.
			Name:     "dist-shard-latency-skew",
			Expr:     Expr{Series: "dist_epoch_seconds_skew", Kind: ExprThreshold, Op: OpGT, Value: 3},
			ForMS:    60_000,
			Severity: SeverityWarning,
			Labels:   map[string]string{"subsystem": "dist"},
		},
	}
}

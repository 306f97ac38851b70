// Package service is the crash-safe simulation job service: an HTTP API
// over the field runtime (internal/field) and the experiment sweeps
// (internal/exp). Jobs are submitted as JSON specs, run on a bounded
// worker pool behind an adaptive priority scheduler (class-banded
// min-heap dispatch with EDF tie-breaking, per-job retry budgets with
// exponential backoff and deterministic jitter, per-spec circuit
// breakers, a dead-letter spool with operator resurrection, and
// recurring specs), and expose their lifecycle, live epoch progress
// (Server-Sent Events) and the process-wide metrics registry over HTTP.
// The headline guarantee is crash safety: a field job checkpoints its
// runtime snapshot to a spool directory at every epoch boundary, so a
// daemon killed mid-run re-queues the job on restart, resumes from the
// checkpoint, and — by the field runtime's determinism contract —
// finishes with a summary byte-identical to an uninterrupted run.
//
// The package mirrors the paper's own shape one level up: a cluster head
// is a locally-centralized coordinator polling many battery-bound
// clients; mhpolld is a locally-centralized coordinator polling many
// long-running simulations. Both only pay off if the coordinator
// survives faults.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/backoff"
	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/field"
	"repro/internal/topo"
)

// Job types.
const (
	// TypeField runs a multi-cluster field simulation (internal/field)
	// with epoch-boundary checkpointing.
	TypeField = "field"
	// TypeSweep runs one of the experiment sweeps (internal/exp). Sweeps
	// have no intermediate state to checkpoint; an interrupted sweep is
	// re-run from scratch (cells are deterministic, so the result is
	// unaffected).
	TypeSweep = "sweep"
	// TypeProbe runs a synthetic diagnostic job: sleep a bit, then
	// succeed or fail on command. Probes exist so operators (and the CI
	// smoke test) can exercise the scheduler's retry, breaker and
	// dead-letter plumbing on a live deployment without burning a real
	// simulation.
	TypeProbe = "probe"
	// TypeDist runs a field simulation distributed across worker daemons
	// (internal/dist): this process acts as the coordinator, sharding the
	// field's clusters over the spec's worker URLs and committing every
	// epoch to the same checkpoint spool a local field job uses. The
	// determinism contract carries over — the distributed summary is
	// byte-identical to a single-process run of the same field spec.
	TypeDist = "dist_field"
)

// Spec is the job specification clients POST to /v1/jobs. Exactly one of
// Field/Sweep/Probe must be set, matching Type. The scheduling fields
// (class, priority, deadline, delay, retry, every) are all optional; a
// spec that omits every one of them — any pre-scheduler spec — runs with
// the legacy semantics: batch class, priority 0, due immediately, a
// single attempt, no recurrence.
type Spec struct {
	Type string `json:"type"`
	// Workers bounds the parallelism *inside* the job (the field
	// runtime's cluster pool, sweep cells); 0 means all CPUs. Concurrency *across* jobs
	// is the manager's worker pool, not the spec's business.
	Workers int        `json:"workers,omitempty"`
	Field   *FieldSpec `json:"field,omitempty"`
	Sweep   *SweepSpec `json:"sweep,omitempty"`
	Probe   *ProbeSpec `json:"probe,omitempty"`
	Dist    *DistSpec  `json:"dist,omitempty"`

	// Class picks the dispatch band: "interactive" > "batch" >
	// "background". Empty means batch.
	Class string `json:"class,omitempty"`
	// Priority orders jobs within a class (higher runs first; may be
	// negative). Ties fall back to earliest deadline, then FIFO.
	Priority int `json:"priority,omitempty"`
	// DeadlineMS is a soft completion target, milliseconds from
	// submission. It only steers the queue (EDF tie-breaking within a
	// class+priority band); the service never kills a late job.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// DelayMS defers the first run: the job becomes due DelayMS after
	// submission instead of immediately.
	DelayMS int64 `json:"delay_ms,omitempty"`
	// Retry arms multi-attempt execution with exponential backoff and a
	// dead-letter terminus. Absent = legacy single attempt.
	Retry *RetrySpec `json:"retry,omitempty"`
	// EveryMS makes the job recurring: each successful completion
	// re-queues a fresh run EveryMS after the finish. The latest result
	// stays readable between runs; cancel ends the recurrence.
	EveryMS int64 `json:"every_ms,omitempty"`
}

// RetrySpec is the per-job retry budget. Zero-valued fields take the
// service defaults (3 attempts, 500 ms base backoff, 30 s cap); the
// block being present at all is what opts the job out of the legacy
// fail-fast behavior.
type RetrySpec struct {
	// MaxAttempts bounds total run attempts before the job dead-letters.
	// 0 means 3; 1 reproduces the legacy fail-fast (straight to failed).
	MaxAttempts int `json:"max_attempts,omitempty"`
	// BackoffMS is the base delay after the first failure; it doubles per
	// consecutive failure. 0 means 500.
	BackoffMS int64 `json:"backoff_ms,omitempty"`
	// MaxBackoffMS caps the doubling (before jitter). 0 means 30000.
	MaxBackoffMS int64 `json:"max_backoff_ms,omitempty"`
}

// Validate checks the spec for structural problems before it is accepted
// into the queue, so a malformed job fails at POST time with a 400, not
// minutes later in a worker.
func (s *Spec) Validate() error {
	if err := s.validateSched(); err != nil {
		return err
	}
	switch s.Type {
	case TypeField:
		if s.Field == nil {
			return fmt.Errorf("service: field job without field spec")
		}
		if s.Sweep != nil || s.Probe != nil || s.Dist != nil {
			return fmt.Errorf("service: field job carries an extra sub-spec")
		}
		return s.Field.validate()
	case TypeSweep:
		if s.Sweep == nil {
			return fmt.Errorf("service: sweep job without sweep spec")
		}
		if s.Field != nil || s.Probe != nil || s.Dist != nil {
			return fmt.Errorf("service: sweep job carries an extra sub-spec")
		}
		return s.Sweep.validate()
	case TypeProbe:
		if s.Probe == nil {
			return fmt.Errorf("service: probe job without probe spec")
		}
		if s.Field != nil || s.Sweep != nil || s.Dist != nil {
			return fmt.Errorf("service: probe job carries an extra sub-spec")
		}
		return s.Probe.validate()
	case TypeDist:
		if s.Dist == nil {
			return fmt.Errorf("service: dist_field job without dist spec")
		}
		if s.Field != nil || s.Sweep != nil || s.Probe != nil {
			return fmt.Errorf("service: dist_field job carries an extra sub-spec")
		}
		return s.Dist.validate()
	default:
		return fmt.Errorf("service: unknown job type %q (want %q, %q, %q or %q)", s.Type, TypeField, TypeSweep, TypeProbe, TypeDist)
	}
}

// validateSched checks the scheduling envelope shared by all job types.
func (s *Spec) validateSched() error {
	switch s.Class {
	case "", ClassInteractive, ClassBatch, ClassBackground:
	default:
		return fmt.Errorf("service: unknown class %q (want %q, %q or %q)",
			s.Class, ClassInteractive, ClassBatch, ClassBackground)
	}
	if s.DeadlineMS < 0 {
		return fmt.Errorf("service: negative deadline_ms %d", s.DeadlineMS)
	}
	if s.DelayMS < 0 {
		return fmt.Errorf("service: negative delay_ms %d", s.DelayMS)
	}
	if s.EveryMS < 0 {
		return fmt.Errorf("service: negative every_ms %d", s.EveryMS)
	}
	if r := s.Retry; r != nil {
		if r.MaxAttempts < 0 {
			return fmt.Errorf("service: negative retry.max_attempts %d", r.MaxAttempts)
		}
		if r.MaxAttempts > 100 {
			return fmt.Errorf("service: retry.max_attempts %d > 100", r.MaxAttempts)
		}
		if r.BackoffMS < 0 || r.MaxBackoffMS < 0 {
			return fmt.Errorf("service: negative retry backoff")
		}
		if r.MaxBackoffMS > 0 && r.BackoffMS > r.MaxBackoffMS {
			return fmt.Errorf("service: retry.backoff_ms %d exceeds max_backoff_ms %d", r.BackoffMS, r.MaxBackoffMS)
		}
	}
	return nil
}

// class resolves the dispatch class, defaulting to batch — the band
// every pre-scheduler spec lands in.
func (s *Spec) class() string {
	if s.Class == "" {
		return ClassBatch
	}
	return s.Class
}

// retryPolicy resolves the spec's retry contract. No retry block =
// legacy single attempt.
func (s *Spec) retryPolicy() retryPolicy {
	r := s.Retry
	if r == nil {
		return retryPolicy{maxAttempts: 1}
	}
	p := retryPolicy{
		maxAttempts: r.MaxAttempts,
		backoff: backoff.Policy{
			Base: time.Duration(r.BackoffMS) * time.Millisecond,
			Max:  time.Duration(r.MaxBackoffMS) * time.Millisecond,
		},
	}
	if p.maxAttempts == 0 {
		p.maxAttempts = defaultRetryAttempts
	}
	b := &p.backoff
	if b.Base == 0 {
		b.Base = defaultRetryBackoff
	}
	if b.Max == 0 {
		b.Max = defaultRetryBackoffMax
	}
	if b.Max < b.Base {
		b.Max = b.Base
	}
	return p
}

// every resolves the recurrence interval (0 = one-shot).
func (s *Spec) every() time.Duration {
	return time.Duration(s.EveryMS) * time.Millisecond
}

// delay resolves the initial-run delay.
func (s *Spec) delay() time.Duration {
	return time.Duration(s.DelayMS) * time.Millisecond
}

// ProbeSpec is the synthetic diagnostic job. It sleeps, then fails or
// succeeds on command — enough to drive every edge of the scheduler's
// reliability machinery from the outside.
type ProbeSpec struct {
	// SleepMS holds the worker for this long (context-aware, so cancel
	// and drain still work).
	SleepMS int64 `json:"sleep_ms,omitempty"`
	// Fail makes every attempt fail.
	Fail bool `json:"fail,omitempty"`
	// FailFirst makes attempts 1..FailFirst fail and later ones succeed
	// (attempts are cumulative across resurrections, so a dead-lettered
	// probe with FailFirst == its retry budget succeeds when retried).
	FailFirst int `json:"fail_first,omitempty"`
}

func (ps *ProbeSpec) validate() error {
	if ps.SleepMS < 0 {
		return fmt.Errorf("service: negative probe sleep_ms %d", ps.SleepMS)
	}
	if ps.FailFirst < 0 {
		return fmt.Errorf("service: negative probe fail_first %d", ps.FailFirst)
	}
	return nil
}

// run executes one probe attempt. attempt is the job's cumulative
// attempt counter (1-based).
func (ps *ProbeSpec) run(ctx context.Context, attempt int) ([]byte, error) {
	if ps.SleepMS > 0 {
		t := time.NewTimer(time.Duration(ps.SleepMS) * time.Millisecond)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
	if ps.Fail {
		return nil, errors.New("probe: induced failure")
	}
	if attempt <= ps.FailFirst {
		return nil, fmt.Errorf("probe: induced failure (attempt %d of first %d)", attempt, ps.FailFirst)
	}
	return json.Marshal(map[string]any{"probe": "ok", "slept_ms": ps.SleepMS, "attempt": attempt})
}

// ParamsSpec is the JSON-friendly subset of cluster.Params a job may
// override. Zero values inherit cluster.DefaultParams(); any other value
// overrides it, so an out-of-range one fails FieldSpec validation rather
// than silently running on the default. Durations are milliseconds so
// specs stay unit-explicit.
type ParamsSpec struct {
	M          int     `json:"m,omitempty"`
	RateBps    float64 `json:"rate_bps,omitempty"`
	CycleMS    float64 `json:"cycle_ms,omitempty"`
	LossProb   float64 `json:"loss_prob,omitempty"`
	DataBytes  int     `json:"data_bytes,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	UseSectors bool    `json:"use_sectors,omitempty"`
	EarlySleep bool    `json:"early_sleep,omitempty"`
	LinkLoss   bool    `json:"link_loss,omitempty"`
}

// apply folds the overrides into p.
func (ps *ParamsSpec) apply(p *cluster.Params) {
	if ps == nil {
		return
	}
	if ps.M != 0 {
		p.M = ps.M
	}
	if ps.RateBps != 0 {
		p.RateBps = ps.RateBps
	}
	if ps.CycleMS != 0 {
		p.Cycle = time.Duration(ps.CycleMS * float64(time.Millisecond))
	}
	if ps.LossProb != 0 {
		p.LossProb = ps.LossProb
	}
	if ps.DataBytes != 0 {
		p.DataBytes = ps.DataBytes
	}
	if ps.Seed != 0 {
		p.Seed = ps.Seed
	}
	p.UseSectors = ps.UseSectors
	p.EarlySleep = ps.EarlySleep
	p.LinkLoss = ps.LinkLoss
}

// FieldSpec describes a field simulation as pure data. Build rebuilds the
// identical (topo.Field, field.Config) pair from it on every attempt —
// that is what makes the spec, rather than any in-memory object, the
// job's durable identity: the manifest stores the spec, the snapshot
// stores the derived state, and resume = Build + field.Resume.
type FieldSpec struct {
	// Deployment: heads and sensors uniformly placed in a side x side
	// square (topo.BuildField) from Seed.
	Seed    int64   `json:"seed"`
	Side    float64 `json:"side"`
	Heads   int     `json:"heads"`
	Sensors int     `json:"sensors"`
	// Radio ranges; HeadRange 0 means Side (cover the whole square).
	SensorRange float64 `json:"sensor_range"`
	HeadRange   float64 `json:"head_range,omitempty"`
	// InterferenceRange feeds the Section V-G channel coloring.
	InterferenceRange float64 `json:"interference_range"`
	// BatteryJoules enables depletion accounting when positive.
	BatteryJoules float64 `json:"battery_joules,omitempty"`
	// Epoch schedule; zero values mean 1.
	EpochCycles int `json:"epoch_cycles,omitempty"`
	Epochs      int `json:"epochs,omitempty"`
	// Churn arms the epoch-boundary fault engine.
	FaultRate float64 `json:"fault_rate,omitempty"`
	ChurnSeed int64   `json:"churn_seed,omitempty"`
	// Params overrides the shared cluster parameters.
	Params *ParamsSpec `json:"params,omitempty"`
}

func (fs *FieldSpec) validate() error {
	if fs.Heads < 1 {
		return fmt.Errorf("service: field spec needs at least one head, got %d", fs.Heads)
	}
	if fs.Sensors < 0 {
		return fmt.Errorf("service: negative sensor count %d", fs.Sensors)
	}
	if fs.Side <= 0 {
		return fmt.Errorf("service: non-positive field side %g", fs.Side)
	}
	if fs.SensorRange <= 0 {
		return fmt.Errorf("service: non-positive sensor range %g", fs.SensorRange)
	}
	if fs.InterferenceRange <= 0 {
		return fmt.Errorf("service: non-positive interference range %g", fs.InterferenceRange)
	}
	if fs.FaultRate < 0 || fs.FaultRate > 1 {
		return fmt.Errorf("service: fault rate %g outside [0,1]", fs.FaultRate)
	}
	return fs.params().Validate()
}

// params resolves the cluster parameters: the defaults with the spec's
// overrides applied.
func (fs *FieldSpec) params() cluster.Params {
	p := cluster.DefaultParams()
	fs.Params.apply(&p)
	return p
}

// epochs resolves the job's target epoch count.
func (fs *FieldSpec) epochs() int {
	if fs.Epochs < 1 {
		return 1
	}
	return fs.Epochs
}

// Build materializes the deployment and runtime config the spec
// describes. Deterministic: two calls return independent but identical
// pairs (churn mutates topology in place, so every attempt must build
// fresh).
func (fs *FieldSpec) Build() (*topo.Field, field.Config, error) {
	if err := fs.validate(); err != nil {
		return nil, field.Config{}, err
	}
	f := topo.BuildField(fs.Seed, fs.Side, fs.Heads, fs.Sensors)
	tc := topo.DefaultConfig(0, fs.Seed)
	tc.SensorRange = fs.SensorRange
	tc.HeadRange = fs.HeadRange
	if tc.HeadRange <= 0 {
		tc.HeadRange = fs.Side
	}
	cfg := field.Config{
		Topo:              tc,
		Params:            fs.params(),
		InterferenceRange: fs.InterferenceRange,
		BatteryJoules:     fs.BatteryJoules,
		EpochCycles:       fs.EpochCycles,
		Epochs:            fs.epochs(),
		Churn: field.Churn{
			FaultRate: fs.FaultRate,
			Seed:      fs.ChurnSeed,
		},
	}
	return f, cfg, nil
}

// DistSpec describes a distributed field run: the field itself (the
// same pure-data FieldSpec a local field job uses — that is what makes
// the distributed result comparable to the local one) plus the worker
// fleet and the coordinator's failure-detection knobs.
type DistSpec struct {
	// Field is the simulation, identical in meaning to a field job's
	// spec. It is also the wire payload: workers receive these bytes and
	// rebuild the same world through BuildFieldSpec.
	Field FieldSpec `json:"field"`
	// Workers are the worker daemons' base URLs
	// ("http://127.0.0.1:9101"); at least one is required.
	Workers []string `json:"workers"`
	// EpochTimeoutMS bounds one worker call (0 = dist default).
	EpochTimeoutMS int64 `json:"epoch_timeout_ms,omitempty"`
	// HeartbeatMS is the ping interval (0 = dist default).
	HeartbeatMS int64 `json:"heartbeat_ms,omitempty"`
	// HeartbeatTimeoutMS is the silence that writes a worker off
	// (0 = dist default).
	HeartbeatTimeoutMS int64 `json:"heartbeat_timeout_ms,omitempty"`
}

func (ds *DistSpec) validate() error {
	if len(ds.Workers) == 0 {
		return fmt.Errorf("service: dist_field job needs at least one worker URL")
	}
	for _, w := range ds.Workers {
		if w == "" {
			return fmt.Errorf("service: empty dist_field worker URL")
		}
	}
	if ds.EpochTimeoutMS < 0 || ds.HeartbeatMS < 0 || ds.HeartbeatTimeoutMS < 0 {
		return fmt.Errorf("service: negative dist_field timeout")
	}
	return ds.Field.validate()
}

// BuildFieldSpec is the dist.Builder both sides of the worker protocol
// share: the session's opaque spec bytes are a FieldSpec. The
// coordinator (runDist) and the worker host (mhpolld's /v1/worker
// mount) build through this same function, which is what makes the
// FieldHash handshake meaningful — equal bytes, equal worlds.
func BuildFieldSpec(raw json.RawMessage) (*topo.Field, field.Config, error) {
	var fs FieldSpec
	if err := json.Unmarshal(raw, &fs); err != nil {
		return nil, field.Config{}, fmt.Errorf("service: decode field spec: %w", err)
	}
	return fs.Build()
}

// Sweep figures the service can run.
const (
	SweepFig7a    = "7a"
	SweepFig7b    = "7b"
	SweepFig7c    = "7c"
	SweepCapacity = "capacity"
)

// SweepSpec selects one experiment sweep.
type SweepSpec struct {
	// Fig names the sweep: 7a, 7b, 7c or capacity.
	Fig string `json:"fig"`
	// Quick selects the cut-down grids (the -quick CLI flag).
	Quick bool `json:"quick,omitempty"`
}

func (ss *SweepSpec) validate() error {
	switch ss.Fig {
	case SweepFig7a, SweepFig7b, SweepFig7c, SweepCapacity:
		return nil
	}
	return fmt.Errorf("service: unknown sweep fig %q", ss.Fig)
}

// sweepResult is the terminal payload of a sweep job: the machine-readable
// points plus the rendered ASCII table the CLI prints.
type sweepResult struct {
	Fig    string          `json:"fig"`
	Points json.RawMessage `json:"points"`
	Table  string          `json:"table"`
}

// run executes the sweep under o (which carries the job's context,
// worker bound and observer) and returns the marshaled result.
func (ss *SweepSpec) run(o exp.Options) ([]byte, error) {
	var (
		points any
		table  string
		err    error
	)
	switch ss.Fig {
	case SweepFig7a:
		cfg := exp.DefaultFig7a()
		if ss.Quick {
			cfg = exp.QuickFig7a()
		}
		var pts []exp.Fig7aPoint
		pts, err = exp.Fig7a(o, cfg)
		points, table = pts, exp.RenderFig7a(pts)
	case SweepFig7b:
		cfg := exp.DefaultFig7b()
		if ss.Quick {
			cfg = exp.QuickFig7b()
		}
		var pts []exp.Fig7bPoint
		pts, err = exp.Fig7b(o, cfg)
		points, table = pts, exp.RenderFig7b(pts)
	case SweepFig7c:
		cfg := exp.DefaultFig7c()
		if ss.Quick {
			cfg = exp.QuickFig7c()
		}
		var pts []exp.Fig7cPoint
		pts, err = exp.Fig7c(o, cfg)
		points, table = pts, exp.RenderFig7c(pts)
	case SweepCapacity:
		cfg := exp.DefaultCapacity()
		if ss.Quick {
			cfg = exp.QuickCapacity()
		}
		var rows []exp.CapacityRow
		rows, err = exp.Capacity(o, cfg)
		points, table = rows, exp.RenderCapacity(rows)
	default:
		return nil, fmt.Errorf("service: unknown sweep fig %q", ss.Fig)
	}
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(points)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(sweepResult{Fig: ss.Fig, Points: raw, Table: table}, "", "  ")
}

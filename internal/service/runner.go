package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/sse"
)

// ErrBadSpec wraps every spec validation error Submit returns; the HTTP
// layer translates it to 400. Submit errors outside the sentinels here
// (a failing spool, say) are the server's fault and map to 500. The text
// has no package prefix because the validation error it wraps carries one.
var ErrBadSpec = errors.New("bad spec")

// ErrQueueFull is returned by Submit when the scheduler has no free
// queue slot; the HTTP layer translates it to 429 with Retry-After.
var ErrQueueFull = errors.New("service: job queue full")

// ErrStopped is returned by Submit after Stop has begun.
var ErrStopped = errors.New("service: manager stopped")

// ErrNotFound is returned for operations on unknown job IDs.
var ErrNotFound = errors.New("service: no such job")

// ErrJobDone is returned by Cancel on a job already in a terminal state.
var ErrJobDone = errors.New("service: job already finished")

// ErrNotDead is returned by Retry on a job that is not dead-lettered.
var ErrNotDead = errors.New("service: job is not dead-lettered")

// Config configures a Manager.
type Config struct {
	// SpoolDir is the durable state directory (required).
	SpoolDir string
	// Workers is the number of jobs executing concurrently; 0 means 1.
	// Parallelism inside a job is the job spec's Workers field.
	Workers int
	// QueueDepth bounds the scheduler queue (jobs queued but not
	// running); 0 means 64. Submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// BreakerThreshold is the consecutive-failure streak that trips a
	// spec fingerprint's circuit breaker; 0 means 5, negative disables
	// breaking.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker parks attempts
	// before allowing a half-open probe; 0 means 30s.
	BreakerCooldown time.Duration
	// Obs receives service- and job-level metrics; nil disables.
	Obs obs.Observer
	// Log receives request and lifecycle logging; nil discards.
	Log *log.Logger
}

func (c Config) workers() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

func (c Config) queueDepth() int {
	if c.QueueDepth < 1 {
		return 64
	}
	return c.QueueDepth
}

// Manager owns the job table, the priority scheduler and the worker
// pool. One Manager per spool directory per process; New recovers the
// spool's jobs, Start launches the workers, Stop drains them.
type Manager struct {
	spool    *Spool
	store    *store
	sched    *jobScheduler
	breakers *breakerSet
	obs      obs.Observer
	log      *log.Logger

	running atomic.Int64
	created time.Time

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	// settleMu orders transitions: settle holds it from mutate through
	// the manifest write to the scheduler push and the feed, so two
	// transitions of one job reach the disk, the scheduler and the feed
	// in the order they reached the store. Transitions run a few times
	// per job, so one lock for all jobs costs nothing measurable.
	settleMu sync.Mutex

	// mu guards the fields below. It nests inside the store lock (Cancel
	// and Retry read it from a transition's mutate), so nothing may take
	// the store lock while holding it.
	mu       sync.Mutex
	stopped  bool
	started  bool
	poolSize int
	cancels  map[string]context.CancelFunc
	feeds    map[string]*sse.Feed

	// requeue holds the IDs recovery found interrupted, pushed into the
	// scheduler (oldest first, so FIFO order within a class survives the
	// crash) by Start.
	requeue []string
}

// New opens the spool, recovers its jobs into the store and prepares the
// worker pool (not yet running — call Start). Interrupted jobs (queued
// or running at crash time) come back queued, oldest first, with their
// checkpoints and any pending backoff schedule intact. Dead-lettered
// jobs stay dead until resurrected. Corrupt per-job manifests are logged
// and skipped.
func New(cfg Config) (*Manager, error) {
	sp, err := OpenSpool(cfg.SpoolDir)
	if err != nil {
		return nil, err
	}
	lg := cfg.Log
	if lg == nil {
		lg = log.New(io.Discard, "", 0)
	}
	jobs, requeue, errs := sp.Recover()
	for _, e := range errs {
		lg.Printf("spool recovery: %v", e)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		spool:      sp,
		store:      newStore(),
		sched:      newJobScheduler(cfg.queueDepth()),
		breakers:   newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Obs),
		obs:        cfg.Obs,
		log:        lg,
		baseCtx:    ctx,
		baseCancel: cancel,
		cancels:    make(map[string]context.CancelFunc),
		feeds:      make(map[string]*sse.Feed),
		requeue:    requeue,
		poolSize:   cfg.workers(),
		created:    time.Now().UTC(),
	}
	for _, j := range jobs {
		m.store.put(j)
	}
	return m, nil
}

// Start enqueues the recovered jobs and launches the worker pool.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.started || m.stopped {
		m.mu.Unlock()
		return
	}
	m.started = true
	n := m.poolSize
	requeue := m.requeue
	m.requeue = nil
	m.mu.Unlock()

	for _, id := range requeue {
		j, ok := m.store.get(id)
		if !ok {
			continue
		}
		m.log.Printf("job %s: re-queued after restart", id)
		// Forced: recovered jobs already owned their slots; a restart
		// must never drop them to backpressure.
		if err := m.sched.push(m.pushReq(&j), true); err != nil {
			m.log.Printf("job %s: re-queue: %v", id, err)
		}
	}
	m.gaugeQueueDepth()
	for w := 0; w < n; w++ {
		m.wg.Add(1)
		go m.worker()
	}
}

// pushReq derives a job's scheduler entry from its manifest state.
func (m *Manager) pushReq(j *Job) pushReq {
	r := pushReq{
		id:       j.ID,
		class:    j.Class,
		priority: j.Spec.Priority,
	}
	if j.Deadline != nil {
		r.deadline = *j.Deadline
	}
	if j.NextRun != nil {
		r.nextRun = *j.NextRun
	}
	return r
}

// Submit validates the spec, durably records the job and schedules it.
// A spec that fails validation returns an error wrapping ErrBadSpec.
func (m *Manager) Submit(spec Spec) (Job, error) {
	if err := spec.Validate(); err != nil {
		return Job{}, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	now := time.Now().UTC()
	j := &Job{
		ID:          newJobID(),
		Spec:        spec,
		State:       StateQueued,
		Class:       spec.class(),
		Fingerprint: specFingerprint(&spec),
		Created:     now,
	}
	if spec.Type == TypeField {
		j.Epochs = spec.Field.epochs()
	}
	if spec.Type == TypeDist {
		j.Epochs = spec.Dist.Field.epochs()
	}
	if spec.DeadlineMS > 0 {
		d := now.Add(time.Duration(spec.DeadlineMS) * time.Millisecond)
		j.Deadline = &d
	}
	if spec.DelayMS > 0 {
		nr := now.Add(spec.delay())
		j.NextRun = &nr
	}

	// Neither a stopped manager nor backpressure costs a spool write. A
	// race with Stop or for the last slot is caught at the push below and
	// rolled back.
	if m.isStopped() {
		return Job{}, ErrStopped
	}
	if m.sched.full() {
		return Job{}, ErrQueueFull
	}
	// Durable before runnable: the manifest hits disk before the ID can
	// reach a worker, so a crash between the two re-queues the job
	// instead of losing it.
	m.store.put(j)
	if err := m.spool.SaveManifest(j); err != nil {
		m.rollback(j.ID)
		return Job{}, fmt.Errorf("service: record job %s: %w", j.ID, err)
	}
	// Snapshot before the push: once a worker can see the job, the
	// store's canonical struct may be mutated concurrently.
	snap := *j
	// The stopped check and the scheduler push share m.mu with Stop, so
	// a job can never be accepted after Stop has begun: either this push
	// happens before Stop flips the flag (and the durable manifest
	// re-queues the job on the next start), or it observes the flag and
	// rolls back.
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		m.rollback(j.ID)
		return Job{}, ErrStopped
	}
	err := m.sched.push(m.pushReq(j), false)
	m.mu.Unlock()
	if err != nil {
		// Backpressure (or a close that raced the flag): roll the job
		// back entirely.
		m.rollback(j.ID)
		return Job{}, err
	}
	if m.obs != nil {
		m.obs.Add(MetricJobsSubmitted, 1)
	}
	m.gaugeQueueDepth()
	m.feed(snap.ID).Publish("state", stateEvent(&snap))
	m.log.Printf("job %s: queued (%s, class %s)", snap.ID, spec.Type, snap.Class)
	return snap, nil
}

// rollback erases a job that was durably recorded but not accepted.
func (m *Manager) rollback(id string) {
	m.store.delete(id)
	if err := os.RemoveAll(m.spool.jobPath(id)); err != nil {
		m.log.Printf("job %s: rollback: %v", id, err)
	}
}

// Job returns a copy of the job, with its result attached when one
// exists (terminal jobs, and recurring jobs between runs).
func (m *Manager) Job(id string) (Job, error) {
	j, ok := m.store.get(id)
	if !ok {
		return Job{}, ErrNotFound
	}
	if j.Result == nil && (j.State == StateDone || j.Runs > 0) {
		res, err := m.spool.LoadResult(id)
		if err != nil {
			m.log.Printf("job %s: load result: %v", id, err)
		}
		j.Result = res
	}
	return j, nil
}

// Jobs lists every known job, oldest first, without results.
func (m *Manager) Jobs() []Job { return m.store.list() }

// Cancel moves a queued or running job to cancelled. Queued jobs —
// including backoff- and breaker-parked ones — leave the scheduler
// immediately and never start; running jobs stop at their next epoch
// boundary. A recurring job's chain ends with it.
func (m *Manager) Cancel(id string) error {
	now := time.Now().UTC()
	refusal := ErrNotFound
	var cancel context.CancelFunc
	_, _, err := m.settle(id, func(x *Job) bool {
		if x.State.Terminal() {
			refusal = ErrJobDone
			return false
		}
		refusal = nil
		if x.State == StateRunning {
			m.mu.Lock()
			cancel = m.cancels[id]
			m.mu.Unlock()
		}
		x.State = StateCancelled
		x.RetryState = ""
		x.NextRun = nil
		// With an attempt in flight, its outcome finishes the job
		// (settleAttempt). Without one — a queued or parked job, or one a
		// shutdown drain left running — nothing else will, so the finish
		// is stamped here.
		if cancel == nil {
			x.Finished = &now
		}
		return true
	})
	if refusal != nil {
		return refusal
	}
	if cancel != nil {
		cancel() // the attempt stops at its next boundary
	} else {
		// Frees the queue slot now, not at the entry's NextRun.
		m.sched.remove(id)
		m.gaugeQueueDepth()
	}
	m.log.Printf("job %s: cancel requested", id)
	return err
}

// Retry resurrects a dead-lettered job: its failure streak resets and it
// re-enters the scheduler immediately. The spec's circuit breaker is
// left untouched — if it is still open, the resurrected job parks until
// the cooldown, which is exactly the protection the breaker exists for.
// A stopped manager refuses before it writes anything, so the job stays
// dead on disk too.
func (m *Manager) Retry(id string) (Job, error) {
	refusal := ErrNotFound
	j, _, err := m.settle(id, func(x *Job) bool {
		switch {
		case x.State != StateDead:
			refusal = ErrNotDead
		case m.isStopped():
			refusal = ErrStopped
		default:
			refusal = nil
			x.State = StateQueued
			x.RetryState = ""
			x.Failures = 0
			x.Error = ""
			x.Finished = nil
			x.NextRun = nil
			return true
		}
		return false
	})
	if refusal != nil {
		return Job{}, refusal
	}
	if err := m.spool.ClearDead(id); err != nil {
		m.log.Printf("job %s: clear dead-letter: %v", id, err)
	}
	m.log.Printf("job %s: resurrected from dead-letter", id)
	return j, err
}

// Events returns the job's SSE feed. For a job already terminal (e.g.
// finished before this process started), the feed is primed with the
// terminal state and closed so subscribers get one event and EOF.
func (m *Manager) Events(id string) (*sse.Feed, error) {
	j, ok := m.store.get(id)
	if !ok {
		return nil, ErrNotFound
	}
	f := m.feed(id)
	if j.State.Terminal() {
		f.Publish("state", stateEvent(&j)) // dropped if already closed
		f.Close()
	}
	return f, nil
}

// Stop begins shutdown: no new submissions, running jobs are cancelled
// (they stop at their next epoch boundary, checkpoint already on disk)
// and the pool is drained. Queued jobs — parked or not — keep their
// durable manifests and re-enter the scheduler on the next start.
// Returns ctx.Err() if the drain deadline passes first; the spool stays
// consistent either way.
func (m *Manager) Stop(ctx context.Context) error {
	m.mu.Lock()
	m.stopped = true
	m.mu.Unlock()
	m.sched.close()
	m.baseCancel()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// feed returns (creating if needed) the job's event feed.
func (m *Manager) feed(id string) *sse.Feed {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.feeds[id]
	if f == nil {
		f = sse.NewFeed()
		m.feeds[id] = f
	}
	return f
}

// stateEvent is the payload of "state" SSE events.
func stateEvent(j *Job) map[string]any {
	ev := map[string]any{"id": j.ID, "state": j.State, "epoch": j.Epoch}
	if j.Epochs > 0 {
		ev["epochs"] = j.Epochs
	}
	if j.Error != "" {
		ev["error"] = j.Error
	}
	if j.RetryState != "" {
		ev["retry_state"] = j.RetryState
	}
	if j.NextRun != nil {
		ev["next_run"] = j.NextRun
	}
	if j.Failures > 0 {
		ev["failures"] = j.Failures
	}
	if j.Runs > 0 {
		ev["runs"] = j.Runs
	}
	return ev
}

func (m *Manager) gaugeQueueDepth() {
	if m.obs != nil {
		m.obs.Set(MetricQueueDepth, float64(m.sched.depth()))
	}
}

// worker is one pool goroutine: wait for a due job, run it, repeat until
// shutdown.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		id, due, ok := m.sched.next(m.baseCtx)
		if !ok {
			return
		}
		if m.obs != nil {
			if d := time.Since(due).Seconds(); d >= 0 {
				m.obs.Observe(MetricSchedDelay, d)
			}
		}
		m.gaugeQueueDepth()
		m.runJob(id)
	}
}

// isStopped reports whether Stop has begun.
func (m *Manager) isStopped() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stopped
}

// settle is the one job transition. mutate runs under the store lock and
// returns false when the job is not in a state the transition applies to
// (it lost a race); settle then changes nothing. Otherwise the manifest
// is written first, and only then does the new state become visible:
//
//   - a finished job (terminal, Finished stamped) publishes its final
//     state event, is counted once in service_jobs_finished_total and
//     closes its feed;
//   - a queued job is pushed to the scheduler, forced (it already owns
//     its slot), and publishes a state event on a reopened feed (a
//     resurrected job's feed closed when it died);
//   - any other job publishes a state event.
//
// A manifest error is logged and returned, but the transition still
// takes effect: the store already holds it, and a job left invisible
// would strand its feed and its queue slot. settle returns the job as the
// store holds it afterwards (zero for an unknown ID) and whether mutate
// applied.
func (m *Manager) settle(id string, mutate func(*Job) bool) (Job, bool, error) {
	m.settleMu.Lock()
	defer m.settleMu.Unlock()
	var applied bool
	j, _ := m.store.update(id, func(x *Job) { applied = mutate(x) })
	if !applied {
		return j, false, nil
	}
	err := m.spool.SaveManifest(&j)
	if err != nil {
		m.log.Printf("job %s: persist %s manifest: %v", id, j.State, err)
	}
	f := m.feed(id)
	if j.State == StateQueued {
		if err := m.sched.push(m.pushReq(&j), true); err != nil {
			m.log.Printf("job %s: re-queue: %v", id, err)
		}
		m.gaugeQueueDepth()
		f.Reopen()
	}
	f.Publish("state", stateEvent(&j))
	if j.State.Terminal() && j.Finished != nil {
		// Counted before the close, so a client whose stream has ended
		// sees the count on /metrics.
		if m.obs != nil {
			m.obs.Add(finishedSeries(j.State), 1)
		}
		f.Close()
	}
	return j, true, err
}

// settleAttempt settles the outcome of job id's attempt. Every outcome
// passes one guard first: a job that Cancel flipped while the attempt was
// in flight is finished as cancelled, whatever the attempt returned.
// Otherwise outcome applies to a job still running; a nil outcome (a
// shutdown drain) leaves it running. It reports whether outcome applied.
func (m *Manager) settleAttempt(id string, outcome func(x *Job, now time.Time)) (Job, bool) {
	now := time.Now().UTC()
	j, ok, _ := m.settle(id, func(x *Job) bool {
		switch {
		case x.State == StateCancelled && x.Finished == nil:
			x.Finished = &now
		case x.State == StateRunning && outcome != nil:
			outcome(x, now)
		default:
			return false
		}
		return true
	})
	if ok && j.State == StateCancelled {
		m.log.Printf("job %s: cancelled at epoch %d", id, j.Epoch)
		return j, false
	}
	return j, ok
}

// runJob executes one attempt of the job.
func (m *Manager) runJob(id string) {
	j, ok := m.store.get(id)
	if !ok || j.State != StateQueued {
		return // cancelled while queued, or rolled back
	}

	// Circuit-breaker gate: an open breaker parks the attempt until the
	// cooldown instead of running it. The park consumes no attempt and
	// no failure — the job just waits out the storm.
	if wait := m.breakers.gate(j.Fingerprint); wait > 0 {
		nr := time.Now().UTC().Add(wait)
		if _, ok, _ := m.settle(id, func(x *Job) bool {
			if x.State != StateQueued {
				return false // cancel raced the park; the entry is already gone
			}
			x.NextRun = &nr
			x.RetryState = RetryParked
			return true
		}); ok {
			m.log.Printf("job %s: %s until %s", id, RetryParked, nr.Format(time.RFC3339))
		}
		return
	}

	// The attempt's cancel func is registered before the state flips, so
	// a Cancel that sees the job running finds it, and dropped (release)
	// before the outcome settles, so a Cancel that finds none knows no
	// outcome is coming and finishes the job itself.
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()
	m.mu.Lock()
	m.cancels[id] = cancel
	m.mu.Unlock()

	// Gauge up before the state flips so anyone who observes a job in
	// StateRunning also observes a non-zero running gauge, and down
	// (release, once on every path) before any terminal flip, so anyone
	// who observes the job finished no longer counts it running.
	if m.obs != nil {
		m.obs.Set(MetricJobsRunning, float64(m.running.Add(1)))
	}
	release := func() {
		m.mu.Lock()
		delete(m.cancels, id)
		m.mu.Unlock()
		if m.obs != nil {
			m.obs.Set(MetricJobsRunning, float64(m.running.Add(-1)))
		}
	}
	now := time.Now().UTC()
	j, started, err := m.settle(id, func(x *Job) bool {
		if x.State != StateQueued { // cancel won the race since the get above
			return false
		}
		x.State = StateRunning
		x.Started = &now
		x.Attempts++
		x.RetryState = ""
		x.NextRun = nil
		return true
	})
	if !started {
		release()
		return
	}
	if err != nil {
		release()
		m.handleFailure(&j, fmt.Errorf("persist manifest: %w", err))
		return
	}
	m.log.Printf("job %s: running (attempt %d)", id, j.Attempts)
	start := time.Now()

	var result []byte
	switch j.Spec.Type {
	case TypeField:
		result, err = m.runField(ctx, id, &j)
	case TypeSweep:
		result, err = j.Spec.Sweep.run(exp.Options{Workers: j.Spec.Workers, Ctx: ctx, Obs: m.obs})
	case TypeProbe:
		result, err = j.Spec.Probe.run(ctx, j.Attempts)
	case TypeDist:
		result, err = m.runDist(ctx, id, &j)
	default:
		err = fmt.Errorf("service: unknown job type %q", j.Spec.Type)
	}
	release()
	if m.obs != nil {
		m.obs.Observe(MetricJobSeconds, time.Since(start).Seconds())
	}

	switch {
	case err != nil && ctx.Err() != nil:
		// Interrupted, not failed. A user cancel finishes the job through
		// the guard. A shutdown drain leaves the manifest saying
		// "running" — the durable marker recovery turns back into
		// "queued", and the last checkpoint on disk is where the resume
		// picks up.
		if cur, _ := m.settleAttempt(id, nil); cur.State == StateRunning {
			m.log.Printf("job %s: interrupted at epoch %d, will resume from checkpoint", id, cur.Epoch)
		}
	case err != nil:
		m.handleFailure(&j, err)
	default:
		m.breakers.success(j.Fingerprint)
		m.finish(&j, result)
	}
}

// handleFailure settles a failed attempt of j: backoff-park while the
// retry budget lasts, then dead-letter (or plain failure for legacy
// single-attempt jobs).
func (m *Manager) handleFailure(j *Job, runErr error) {
	m.breakers.failure(j.Fingerprint)
	pol := j.Spec.retryPolicy()
	var delay time.Duration
	nj, ok := m.settleAttempt(j.ID, func(x *Job, now time.Time) {
		x.Failures++
		x.Error = runErr.Error()
		switch {
		case x.Failures < pol.maxAttempts:
			delay = pol.delay(x.Failures, jitterSeed(x.ID))
			nr := now.Add(delay)
			x.State = StateQueued
			x.RetryState = RetryBackoff
			x.NextRun = &nr
		case pol.maxAttempts <= 1:
			// Legacy single-attempt semantics: straight to failed.
			x.State = StateFailed
			x.Finished = &now
		default:
			// Dead-letter: terminal for the scheduler, resurrectable by
			// an operator via Retry.
			x.State = StateDead
			x.RetryState = RetryExhausted
			x.Finished = &now
			x.NextRun = nil
		}
	})
	if !ok {
		return
	}
	switch nj.State {
	case StateQueued:
		if m.obs != nil {
			m.obs.Add(MetricRetries, 1)
		}
		m.log.Printf("job %s: attempt %d failed (%v), retry %d/%d in %s",
			nj.ID, nj.Attempts, runErr, nj.Failures, pol.maxAttempts, delay.Round(time.Millisecond))
	case StateFailed:
		m.log.Printf("job %s: failed: %v", nj.ID, runErr)
	case StateDead:
		if err := m.spool.MarkDead(&nj); err != nil {
			m.log.Printf("job %s: dead-letter index: %v", nj.ID, err)
		}
		if m.obs != nil {
			m.obs.Add(MetricDeadLetter, 1)
		}
		m.log.Printf("job %s: dead-lettered after %d attempts: %v", nj.ID, nj.Attempts, runErr)
	}
}

// finish settles a successful attempt of j: a one-shot job goes done, a
// recurring one re-queues its next run. Either way the result hits disk
// before the state, so a crash between the two re-runs the job rather
// than serving a done job with no result.
func (m *Manager) finish(j *Job, result []byte) {
	if err := m.spool.SaveResult(j.ID, result); err != nil {
		m.handleFailure(j, fmt.Errorf("persist result: %w", err))
		return
	}
	every := j.Spec.every()
	if every <= 0 {
		if _, ok := m.settleAttempt(j.ID, func(x *Job, now time.Time) {
			x.State = StateDone
			x.Failures = 0
			x.Runs++
			x.Finished = &now
		}); ok {
			m.log.Printf("job %s: done", j.ID)
		}
		return
	}
	// Recurrence: the next run is a fresh simulation, not a resume, so the
	// completed run's checkpoint goes first; the failure streak resets, so
	// each recurrence gets the full retry budget.
	if err := field.RemoveCheckpoint(m.spool.SnapshotPath(j.ID)); err != nil {
		m.log.Printf("job %s: clear checkpoint for recurrence: %v", j.ID, err)
	}
	if nj, ok := m.settleAttempt(j.ID, func(x *Job, now time.Time) {
		nr := now.Add(every)
		x.State = StateQueued
		x.Failures = 0
		x.Runs++
		x.Epoch = 0
		x.Error = ""
		x.NextRun = &nr
	}); ok {
		m.log.Printf("job %s: run %d done, next at %s", j.ID, nj.Runs, nj.NextRun.Format(time.RFC3339))
	}
}

// runField executes (or resumes) a field job, checkpointing at every
// epoch boundary. The checkpoint discipline is the crash-safety core:
// snapshot first (atomic), manifest second, so the spool always holds a
// snapshot at least as new as the manifest's epoch counter, and a
// resume never needs state the spool might have lost.
func (m *Manager) runField(ctx context.Context, id string, j *Job) ([]byte, error) {
	spec := j.Spec.Field
	f, cfg, err := spec.Build()
	if err != nil {
		return nil, err
	}
	fd := m.feed(id)
	cfg.OnEpoch = func(rep *field.EpochReport) {
		fd.Publish("epoch", rep)
	}

	snapPath := m.spool.SnapshotPath(id)
	var rt *field.Runtime
	if snap := m.loadCheckpoint(id); snap != nil {
		rt, err = field.Resume(f, cfg, snap)
	} else {
		rt, err = field.New(f, cfg)
	}
	if err != nil {
		return nil, err
	}

	opts := exp.Options{Workers: j.Spec.Workers, Ctx: ctx, Obs: m.obs}
	epochs := spec.epochs()
	for rt.Epoch() < epochs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, err := rt.RunEpoch(opts); err != nil {
			return nil, err
		}
		if err := m.checkpoint(id, snapPath, rt.Snapshot()); err != nil {
			return nil, err
		}
	}
	return json.MarshalIndent(rt.Summary(), "", "  ")
}

// loadCheckpoint reads job id's spooled checkpoint and counts the resume.
// It returns nil for a fresh run and for a corrupt or foreign-version
// checkpoint: the run is deterministic, so starting over from epoch 0
// produces the identical summary, and the job recovers by restarting
// rather than failing.
func (m *Manager) loadCheckpoint(id string) *field.Snapshot {
	snap, err := field.ReadSnapshotFile(m.spool.SnapshotPath(id))
	switch {
	case err == nil:
		if m.obs != nil {
			m.obs.Add(MetricResumes, 1)
		}
		m.log.Printf("job %s: resumed from checkpoint at epoch %d", id, snap.Epoch)
		return snap
	case !errors.Is(err, os.ErrNotExist):
		m.log.Printf("job %s: unusable checkpoint (%v), restarting from epoch 0", id, err)
	}
	return nil
}

// checkpoint persists an epoch boundary: the snapshot first (see
// field.Snapshot.WriteFile), then the manifest's epoch counter. With an
// observer it counts the checkpoint and times both writes as the
// checkpoint stage.
func (m *Manager) checkpoint(id, path string, sn *field.Snapshot) error {
	var start time.Time
	if m.obs != nil {
		start = time.Now()
	}
	if err := sn.WriteFile(path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	ej, _ := m.store.update(id, func(x *Job) { x.Epoch = sn.Epoch })
	if err := m.spool.SaveManifest(&ej); err != nil {
		return fmt.Errorf("checkpoint manifest: %w", err)
	}
	if m.obs != nil {
		m.obs.Add(MetricCheckpoints, 1)
		obs.ObserveDuration(m.obs, field.SeriesStageCheckpoint, time.Since(start))
	}
	return nil
}

// runDist executes (or resumes) a distributed field job: this process
// is the coordinator, the spec's worker URLs are the fleet. The
// checkpoint discipline is runField's, moved into the coordinator's
// commit hook: snapshot first (atomic), manifest second, at every epoch
// boundary — so a daemon crash resumes the coordination from the last
// committed epoch, re-seeding workers through cluster adoption, and the
// determinism contract makes the final summary byte-identical anyway.
func (m *Manager) runDist(ctx context.Context, id string, j *Job) ([]byte, error) {
	spec := j.Spec.Dist
	raw, err := json.Marshal(&spec.Field)
	if err != nil {
		return nil, err
	}
	snapPath := m.spool.SnapshotPath(id)
	snap := m.loadCheckpoint(id)
	fd := m.feed(id)
	co, err := dist.New(dist.Config{
		Session:           id,
		Spec:              raw,
		Build:             BuildFieldSpec,
		Workers:           spec.Workers,
		Transport:         &dist.HTTPTransport{},
		Snapshot:          snap,
		EpochTimeout:      time.Duration(spec.EpochTimeoutMS) * time.Millisecond,
		HeartbeatInterval: time.Duration(spec.HeartbeatMS) * time.Millisecond,
		HeartbeatTimeout:  time.Duration(spec.HeartbeatTimeoutMS) * time.Millisecond,
		Obs:               m.obs,
		OnCommit: func(sn *field.Snapshot, rep *field.EpochReport) error {
			if err := m.checkpoint(id, snapPath, sn); err != nil {
				return err
			}
			fd.Publish("epoch", rep)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	sum, err := co.Run(ctx)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(sum, "", "  ")
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// probeSpec builds a probe job spec with a fast retry schedule.
func probeSpec(mut func(*Spec)) Spec {
	s := Spec{
		Type:  TypeProbe,
		Probe: &ProbeSpec{},
		Retry: &RetrySpec{MaxAttempts: 3, BackoffMS: 1, MaxBackoffMS: 4},
	}
	if mut != nil {
		mut(&s)
	}
	return s
}

// waitForDeadLetter polls for a job's dead-letter index entry, which
// trails the StateDead flip by one spool write.
func waitForDeadLetter(t *testing.T, spool, id string) {
	t.Helper()
	path := filepath.Join(spool, deadDir, id+".json")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := os.Stat(path); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no dead-letter entry at %s", path)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// newReliabilityManager builds a manager with the circuit breaker
// disabled (so retry tests see pure backoff behavior) unless threshold
// overrides it.
func newReliabilityManager(t *testing.T, spool string, threshold int, cooldown time.Duration) *Manager {
	t.Helper()
	m, err := New(Config{
		SpoolDir:         spool,
		Workers:          1,
		BreakerThreshold: threshold,
		BreakerCooldown:  cooldown,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	t.Cleanup(func() { stopManager(t, m) })
	return m
}

// TestDeadLetterAfterExhaustion: a job that fails every attempt backs
// off between attempts and dead-letters once the budget is spent —
// durably, with a dead-letter index entry — and an operator resurrection
// gives it a fresh budget.
func TestDeadLetterAfterExhaustion(t *testing.T) {
	spool := t.TempDir()
	m := newReliabilityManager(t, spool, -1, 0)

	// fail_first = 3 with a 3-attempt budget: the first life dies, the
	// resurrected attempt (cumulative attempt 4) succeeds.
	j, err := m.Submit(probeSpec(func(s *Spec) { s.Probe.FailFirst = 3 }))
	if err != nil {
		t.Fatal(err)
	}
	dead := waitJob(t, m, j.ID, 30*time.Second, func(x Job) bool { return x.State.Terminal() })
	if dead.State != StateDead {
		t.Fatalf("exhausted job state %s (%s), want dead", dead.State, dead.Error)
	}
	if dead.Attempts != 3 || dead.Failures != 3 {
		t.Fatalf("attempts %d failures %d, want 3/3", dead.Attempts, dead.Failures)
	}
	if dead.RetryState != RetryExhausted {
		t.Fatalf("retry_state %q, want %q", dead.RetryState, RetryExhausted)
	}
	if dead.Finished == nil || dead.Error == "" {
		t.Fatalf("dead job lacks finish bookkeeping: %+v", dead)
	}

	// The dead-letter index holds the job. The index trails the state
	// flip by a spool write, so poll briefly.
	waitForDeadLetter(t, spool, j.ID)
	ids, err := m.spool.DeadLetters()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != j.ID {
		t.Fatalf("DeadLetters() = %v", ids)
	}

	// Dead jobs cannot be cancelled, only resurrected.
	if err := m.Cancel(j.ID); !errors.Is(err, ErrJobDone) {
		t.Fatalf("cancel of dead job: %v, want ErrJobDone", err)
	}

	// Resurrection: fresh failure budget, the index entry clears, and
	// this probe now succeeds.
	res, err := m.Retry(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != StateQueued || res.Failures != 0 || res.RetryState != "" {
		t.Fatalf("resurrected job: %+v", res)
	}
	fin := waitJob(t, m, j.ID, 30*time.Second, func(x Job) bool { return x.State.Terminal() })
	if fin.State != StateDone {
		t.Fatalf("resurrected job finished %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Attempts != 4 {
		t.Fatalf("attempts = %d, want 4 (3 dead + 1 resurrected)", fin.Attempts)
	}
	if _, err := os.Stat(filepath.Join(spool, deadDir, j.ID+".json")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("dead-letter entry survived resurrection: %v", err)
	}
	// Retrying a non-dead job conflicts.
	if _, err := m.Retry(j.ID); !errors.Is(err, ErrNotDead) {
		t.Fatalf("retry of done job: %v, want ErrNotDead", err)
	}
}

// TestLegacyFailFast: a spec without a retry block keeps the
// pre-scheduler semantics — one attempt, straight to failed, no
// dead-letter.
func TestLegacyFailFast(t *testing.T) {
	spool := t.TempDir()
	m := newReliabilityManager(t, spool, -1, 0)
	j, err := m.Submit(Spec{Type: TypeProbe, Probe: &ProbeSpec{Fail: true}})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, m, j.ID, 30*time.Second, func(x Job) bool { return x.State.Terminal() })
	if fin.State != StateFailed {
		t.Fatalf("legacy failure state %s, want failed", fin.State)
	}
	if fin.Attempts != 1 {
		t.Fatalf("legacy attempts = %d, want 1", fin.Attempts)
	}
	if _, err := os.Stat(filepath.Join(spool, deadDir)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("legacy failure created a dead-letter area")
	}
}

// TestBackoffParkedCancel: a job waiting out a long backoff can be
// cancelled immediately — the cancel does not wait for the park to
// elapse.
func TestBackoffParkedCancel(t *testing.T) {
	m := newReliabilityManager(t, t.TempDir(), -1, 0)
	j, err := m.Submit(probeSpec(func(s *Spec) {
		s.Probe.Fail = true
		s.Retry = &RetrySpec{MaxAttempts: 5, BackoffMS: 60_000, MaxBackoffMS: 120_000}
	}))
	if err != nil {
		t.Fatal(err)
	}
	parked := waitJob(t, m, j.ID, 30*time.Second, func(x Job) bool { return x.RetryState == RetryBackoff })
	if parked.State != StateQueued || parked.NextRun == nil {
		t.Fatalf("backoff park: %+v", parked)
	}
	if wait := time.Until(*parked.NextRun); wait < 30*time.Second {
		t.Fatalf("backoff NextRun only %s away, want a long park", wait)
	}
	start := time.Now()
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, m, j.ID, 10*time.Second, func(x Job) bool { return x.State.Terminal() })
	if fin.State != StateCancelled {
		t.Fatalf("cancelled parked job state %s", fin.State)
	}
	if fin.Finished == nil {
		t.Fatal("cancelled parked job has no finish time")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel of parked job took %s", elapsed)
	}
}

// TestBackoffSurvivesRestart: a crash cannot be used to skip a backoff —
// the parked NextRun rides the manifest through recovery.
func TestBackoffSurvivesRestart(t *testing.T) {
	spool := t.TempDir()
	m := newReliabilityManager(t, spool, -1, 0)
	j, err := m.Submit(probeSpec(func(s *Spec) {
		s.Probe.Fail = true
		s.Retry = &RetrySpec{MaxAttempts: 5, BackoffMS: 60_000, MaxBackoffMS: 120_000}
	}))
	if err != nil {
		t.Fatal(err)
	}
	parked := waitJob(t, m, j.ID, 30*time.Second, func(x Job) bool { return x.RetryState == RetryBackoff })
	stopManager(t, m)

	m2, err := New(Config{SpoolDir: spool, Workers: 1, BreakerThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := m2.Job(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateQueued || rec.NextRun == nil || !rec.NextRun.Equal(*parked.NextRun) {
		t.Fatalf("recovered park lost its schedule: %+v (want next_run %v)", rec, parked.NextRun)
	}
	m2.Start()
	defer stopManager(t, m2)
	// Long enough after restart, the job must still be waiting, not have
	// run attempt 2 early.
	time.Sleep(50 * time.Millisecond)
	cur, _ := m2.Job(j.ID)
	if cur.Attempts != 1 {
		t.Fatalf("restart ran a parked attempt early: attempts %d", cur.Attempts)
	}
	if err := m2.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
}

// TestRecurringProbe: every_ms re-queues the job after each success, the
// latest result stays readable between runs, and cancel ends the chain.
func TestRecurringProbe(t *testing.T) {
	m := newReliabilityManager(t, t.TempDir(), -1, 0)
	j, err := m.Submit(Spec{Type: TypeProbe, Probe: &ProbeSpec{}, EveryMS: 5})
	if err != nil {
		t.Fatal(err)
	}
	cur := waitJob(t, m, j.ID, 30*time.Second, func(x Job) bool { return x.Runs >= 3 })
	if cur.State.Terminal() {
		t.Fatalf("recurring job went terminal: %s", cur.State)
	}
	if cur.Result == nil {
		t.Fatal("no result readable between recurring runs")
	}
	var payload map[string]any
	if err := json.Unmarshal(cur.Result, &payload); err != nil || payload["probe"] != "ok" {
		t.Fatalf("recurring result payload: %s (%v)", cur.Result, err)
	}
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, m, j.ID, 30*time.Second, func(x Job) bool { return x.State.Terminal() })
	if fin.State != StateCancelled {
		t.Fatalf("cancelled recurring job state %s", fin.State)
	}
	runs := fin.Runs
	time.Sleep(30 * time.Millisecond)
	after, _ := m.Job(j.ID)
	if after.Runs != runs || !after.State.Terminal() {
		t.Fatal("recurrence continued after cancel")
	}
}

// TestRecurringField: a recurring simulation job re-runs the full field
// simulation each time (the previous run's checkpoint must not leak into
// the next run) and every run reproduces the deterministic summary.
func TestRecurringField(t *testing.T) {
	spec := testFieldSpec(2)
	spec.EveryMS = 1
	want := runSpecDirect(t, spec)

	m := newReliabilityManager(t, t.TempDir(), -1, 0)
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	cur := waitJob(t, m, j.ID, 120*time.Second, func(x Job) bool { return x.Runs >= 2 })
	if cur.Result == nil {
		t.Fatal("recurring field job has no result between runs")
	}
	if !bytes.Equal(cur.Result, want) {
		t.Fatal("recurring run result differs from the deterministic reference")
	}
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, j.ID, 60*time.Second, func(x Job) bool { return x.State.Terminal() })
}

// TestRecurrenceClearsCheckpoint: between the runs of a recurring field
// job, its directory holds neither checkpoint file — not the boundary
// record and not its journal — so the next run starts fresh.
func TestRecurrenceClearsCheckpoint(t *testing.T) {
	spec := testFieldSpec(2)
	spec.EveryMS = 60_000
	spool := t.TempDir()
	m := newReliabilityManager(t, spool, -1, 0)
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, j.ID, 120*time.Second, func(x Job) bool { return x.Runs >= 1 && x.State == StateQueued })
	entries, err := os.ReadDir(filepath.Join(spool, j.ID))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "snapshot.json") {
			t.Fatalf("checkpoint file %s survived the run", e.Name())
		}
	}
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
}

// TestInteractiveOvertakesBackground: with one busy worker, an
// interactive job submitted after a background job still runs first once
// the worker frees up.
func TestInteractiveOvertakesBackground(t *testing.T) {
	m := newReliabilityManager(t, t.TempDir(), -1, 0)
	blocker, err := m.Submit(Spec{Type: TypeProbe, Probe: &ProbeSpec{SleepMS: 1500}})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, blocker.ID, 30*time.Second, func(x Job) bool { return x.State == StateRunning })

	bg, err := m.Submit(Spec{Type: TypeProbe, Probe: &ProbeSpec{SleepMS: 500}, Class: ClassBackground})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := m.Submit(Spec{Type: TypeProbe, Probe: &ProbeSpec{}, Class: ClassInteractive})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, m, inter.ID, 30*time.Second, func(x Job) bool { return x.State.Terminal() })
	if fin.State != StateDone {
		t.Fatalf("interactive job finished %s (%s)", fin.State, fin.Error)
	}
	// The background job was submitted first but must not have finished
	// yet: it only gets the worker after the interactive job, and then
	// sleeps 500ms.
	b, _ := m.Job(bg.ID)
	if b.State == StateDone {
		t.Fatal("background job finished before the interactive overtaker")
	}
	waitJob(t, m, bg.ID, 30*time.Second, func(x Job) bool { return x.State.Terminal() })
}

// TestBreakerTripHalfOpenClose drives the breaker through the manager:
// a first failing attempt trips a threshold-1 breaker, the retry parks
// behind the cooldown, the post-cooldown half-open probe succeeds and
// the job completes.
func TestBreakerTripHalfOpenClose(t *testing.T) {
	m := newReliabilityManager(t, t.TempDir(), 1, time.Second)
	j, err := m.Submit(probeSpec(func(s *Spec) {
		s.Probe.FailFirst = 1
		s.Retry = &RetrySpec{MaxAttempts: 5, BackoffMS: 1, MaxBackoffMS: 2}
	}))
	if err != nil {
		t.Fatal(err)
	}
	// The backoff (≤3ms) expires long before the cooldown (1s), so the
	// retry attempt hits the open breaker and parks.
	waitJob(t, m, j.ID, 30*time.Second, func(x Job) bool { return x.RetryState == RetryParked })
	fin := waitJob(t, m, j.ID, 30*time.Second, func(x Job) bool { return x.State.Terminal() })
	if fin.State != StateDone {
		t.Fatalf("half-open probe outcome %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (trip + successful probe)", fin.Attempts)
	}
}

// TestBreakerSharedAcrossJobs: the breaker keys on the spec fingerprint,
// so a second job with the identical spec parks behind the breaker the
// first job tripped.
func TestBreakerSharedAcrossJobs(t *testing.T) {
	m := newReliabilityManager(t, t.TempDir(), 2, time.Minute)
	mkSpec := func() Spec {
		return probeSpec(func(s *Spec) {
			s.Probe.Fail = true
			s.Retry = &RetrySpec{MaxAttempts: 2, BackoffMS: 1, MaxBackoffMS: 2}
		})
	}
	a, err := m.Submit(mkSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Job A's two failing attempts reach the threshold and trip the
	// breaker on their shared fingerprint.
	waitJob(t, m, a.ID, 30*time.Second, func(x Job) bool { return x.State == StateDead })

	b, err := m.Submit(mkSpec())
	if err != nil {
		t.Fatal(err)
	}
	if b.Fingerprint != a.Fingerprint {
		t.Fatalf("identical specs got fingerprints %s vs %s", a.Fingerprint, b.Fingerprint)
	}
	parked := waitJob(t, m, b.ID, 30*time.Second, func(x Job) bool { return x.RetryState == RetryParked })
	if parked.State != StateQueued || parked.Attempts != 0 {
		t.Fatalf("sibling job not parked pre-attempt: %+v", parked)
	}
	if err := m.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}
}

// TestDelayedStart: delay_ms defers the first attempt.
func TestDelayedStart(t *testing.T) {
	m := newReliabilityManager(t, t.TempDir(), -1, 0)
	j, err := m.Submit(Spec{Type: TypeProbe, Probe: &ProbeSpec{}, DelayMS: 60_000})
	if err != nil {
		t.Fatal(err)
	}
	if j.NextRun == nil {
		t.Fatal("delayed job has no next_run")
	}
	time.Sleep(50 * time.Millisecond)
	cur, _ := m.Job(j.ID)
	if cur.Attempts != 0 || cur.State != StateQueued {
		t.Fatalf("delayed job ran early: %+v", cur)
	}
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
}

// TestLegacySpecGolden pins wire compatibility with the pre-scheduler
// API: a PR-4-era spec JSON decodes without error (strict fields),
// resolves to legacy semantics (batch class, single attempt, no
// recurrence) and round-trips with no new keys appearing.
func TestLegacySpecGolden(t *testing.T) {
	golden := fmt.Sprintf(fieldSpecJSON, 4)
	dec := json.NewDecoder(bytes.NewReader([]byte(golden)))
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("golden spec no longer decodes strictly: %v", err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("golden spec no longer validates: %v", err)
	}

	// Legacy semantics.
	if got := spec.class(); got != ClassBatch {
		t.Fatalf("legacy class = %q, want batch", got)
	}
	if p := spec.retryPolicy(); p.maxAttempts != 1 {
		t.Fatalf("legacy retry budget = %d attempts, want 1 (fail-fast)", p.maxAttempts)
	}
	if spec.every() != 0 || spec.delay() != 0 {
		t.Fatal("legacy spec gained recurrence or delay")
	}

	// Round-trip: re-marshaling must not surface keys the golden JSON
	// does not have (new fields stay omitempty-invisible for old specs).
	out, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	var goldenKeys, outKeys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(golden), &goldenKeys); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out, &outKeys); err != nil {
		t.Fatal(err)
	}
	for k := range outKeys {
		if _, ok := goldenKeys[k]; !ok {
			t.Errorf("round-trip invented top-level key %q", k)
		}
	}
	for k := range goldenKeys {
		if _, ok := outKeys[k]; !ok {
			t.Errorf("round-trip dropped top-level key %q", k)
		}
	}
}

// TestSubmitAfterStopWritesNothing: a stopped manager refuses a job
// before it touches the spool, so a broken spool cannot turn the refusal
// into a spool error — Submit answers ErrStopped and HTTP 503, and no
// job directory appears.
func TestSubmitAfterStopWritesNothing(t *testing.T) {
	spool := filepath.Join(t.TempDir(), "spool")
	m, err := New(Config{SpoolDir: spool, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	stopManager(t, m)
	spec := Spec{Type: TypeProbe, Probe: &ProbeSpec{}}
	if _, err := m.Submit(spec); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit on an intact spool: %v, want ErrStopped", err)
	}
	if entries, err := os.ReadDir(spool); err != nil || len(entries) != 0 {
		t.Fatalf("stopped manager left %d spool entries (%v)", len(entries), err)
	}

	// Replace the spool directory with a regular file: any spool write
	// now fails.
	if err := os.RemoveAll(spool); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spool, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(spec); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit on a broken spool: %v, want ErrStopped", err)
	}
	ts := httptest.NewServer(NewServer(m, nil, nil))
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"type":"probe","probe":{}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /v1/jobs on a stopped manager: %d %s, want 503", resp.StatusCode, body)
	}
	if st, err := os.Stat(spool); err != nil || st.IsDir() {
		t.Fatalf("spool path after refused submits: %v, %v", st, err)
	}
}

// TestStopPreservesParkedJobs: Stop with a backoff-parked job leaves its
// manifest queued so the next daemon re-queues it (covered positively in
// TestBackoffSurvivesRestart); here we pin that Submit during/after Stop
// cannot slip a job past the closing scheduler.
func TestStopSubmitRace(t *testing.T) {
	spool := t.TempDir()
	m, err := New(Config{SpoolDir: spool, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()

	// Hammer Submit concurrently with Stop; every accepted job must have
	// a durable manifest, every refused one must leave no debris.
	done := make(chan []string, 1)
	go func() {
		var accepted []string
		for i := 0; ; i++ {
			j, err := m.Submit(Spec{Type: TypeProbe, Probe: &ProbeSpec{}, DelayMS: 60_000})
			if err != nil {
				if !errors.Is(err, ErrStopped) && !errors.Is(err, ErrQueueFull) {
					panic(fmt.Sprintf("unexpected submit error: %v", err))
				}
				if errors.Is(err, ErrStopped) {
					done <- accepted
					return
				}
				continue
			}
			accepted = append(accepted, j.ID)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Stop(ctx); err != nil {
		t.Fatal(err)
	}
	accepted := <-done

	// Exactly the accepted jobs exist on disk — no phantom manifests for
	// refused submissions, no accepted job missing its manifest.
	entries, err := os.ReadDir(spool)
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() {
			onDisk[e.Name()] = true
		}
	}
	if len(onDisk) != len(accepted) {
		t.Fatalf("%d job dirs on disk, %d accepted submissions", len(onDisk), len(accepted))
	}
	for _, id := range accepted {
		if !onDisk[id] {
			t.Fatalf("accepted job %s has no spool dir", id)
		}
	}
}

package service

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestCancelRacesOutcome: a Cancel that lands after an attempt's run has
// returned but before its outcome settles finishes the job as cancelled,
// whatever the outcome was — the finish is stamped (in memory and in the
// manifest), the feed's last state event reads cancelled and the feed
// closes, the job is counted once as cancelled and under no other
// finished series, and nothing re-queues it.
func TestCancelRacesOutcome(t *testing.T) {
	runErr := errors.New("probe: failed")
	finish := func(m *Manager, j *Job) { m.finish(j, []byte(`{"ok":true}`)) }
	fail := func(m *Manager, j *Job) { m.handleFailure(j, runErr) }
	cases := []struct {
		name     string
		spec     Spec
		failures int // consecutive failures before this attempt
		outcome  func(*Manager, *Job)
	}{
		{"done", Spec{Type: TypeProbe, Probe: &ProbeSpec{}}, 0, finish},
		{"recurring done", Spec{Type: TypeProbe, Probe: &ProbeSpec{}, EveryMS: 60_000}, 0, finish},
		{"backoff failure", probeSpec(nil), 0, fail},
		{"single-attempt failure", Spec{Type: TypeProbe, Probe: &ProbeSpec{}}, 0, fail},
		{"dead-letter", probeSpec(nil), 2, fail},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spool := t.TempDir()
			reg := obs.NewRegistry()
			// Never started: no worker pops the job, so the test plays the
			// runner's part step by step.
			m, err := New(Config{SpoolDir: spool, Workers: 1, BreakerThreshold: -1, Obs: reg.Observer()})
			if err != nil {
				t.Fatal(err)
			}
			j, err := m.Submit(tc.spec)
			if err != nil {
				t.Fatal(err)
			}

			// The attempt: popped, its cancel func registered, running.
			m.sched.remove(j.ID)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			m.cancels[j.ID] = cancel
			j, _, err = m.settle(j.ID, func(x *Job) bool {
				x.State = StateRunning
				x.Attempts++
				x.Failures = tc.failures
				return true
			})
			if err != nil {
				t.Fatal(err)
			}

			// The run has returned; Cancel lands before the outcome.
			if err := m.Cancel(j.ID); err != nil {
				t.Fatal(err)
			}
			if ctx.Err() == nil {
				t.Fatal("Cancel did not interrupt the attempt in flight")
			}
			delete(m.cancels, j.ID)
			tc.outcome(m, &j)

			got, err := m.Job(j.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got.State != StateCancelled || got.Finished == nil {
				t.Fatalf("state %s, finished %v; want cancelled with a finish time", got.State, got.Finished)
			}
			events, closed, _ := m.feed(j.ID).Since(0)
			if !closed {
				t.Fatal("feed still open")
			}
			var last struct{ State State }
			for _, e := range events {
				if e.Name == "state" {
					if err := json.Unmarshal(e.Data, &last); err != nil {
						t.Fatal(err)
					}
				}
			}
			if last.State != StateCancelled {
				t.Fatalf("last state event %q, want cancelled", last.State)
			}
			for series, want := range map[string]float64{
				seriesJobsCancelled: 1,
				seriesJobsDone:      0,
				seriesJobsFailed:    0,
				seriesJobsDead:      0,
				MetricRetries:       0,
				MetricDeadLetter:    0,
			} {
				if v := reg.Counter(series, "").Value(); v != want {
					t.Errorf("%s = %v, want %v", series, v, want)
				}
			}
			if d := m.sched.depth(); d != 0 {
				t.Errorf("queue depth %d after cancel, want 0", d)
			}
			if _, err := os.Stat(filepath.Join(spool, deadDir, j.ID+".json")); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("cancelled job has a dead-letter entry: %v", err)
			}

			// Durable: a fresh manager over the spool loads it finished.
			m2, err := New(Config{SpoolDir: spool})
			if err != nil {
				t.Fatal(err)
			}
			rec, err := m2.Job(j.ID)
			if err != nil {
				t.Fatal(err)
			}
			if rec.State != StateCancelled || rec.Finished == nil {
				t.Fatalf("recovered state %s, finished %v; want cancelled with a finish time", rec.State, rec.Finished)
			}
		})
	}
}

// TestRetryAfterStopWritesNothing: a stopped manager refuses a
// resurrection before it writes anything. The job stays dead in memory,
// in its manifest and in the dead-letter index, so the next start does
// not run it; POST /v1/jobs/{id}/retry answers 503.
func TestRetryAfterStopWritesNothing(t *testing.T) {
	spool := t.TempDir()
	m := newReliabilityManager(t, spool, -1, 0)
	j, err := m.Submit(probeSpec(func(s *Spec) { s.Probe.Fail = true }))
	if err != nil {
		t.Fatal(err)
	}
	if dead := waitJob(t, m, j.ID, 30*time.Second, func(x Job) bool { return x.State.Terminal() }); dead.State != StateDead {
		t.Fatalf("state %s, want dead", dead.State)
	}
	waitForDeadLetter(t, spool, j.ID)
	stopManager(t, m)

	if _, err := m.Retry(j.ID); !errors.Is(err, ErrStopped) {
		t.Fatalf("retry on a stopped manager: %v, want ErrStopped", err)
	}
	ts := httptest.NewServer(NewServer(m, nil, nil))
	defer ts.Close()
	if resp, body := postJSON(t, ts.URL+"/v1/jobs/"+j.ID+"/retry", ``); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST retry on a stopped manager: %d %s, want 503", resp.StatusCode, body)
	}
	if got, _ := m.Job(j.ID); got.State != StateDead {
		t.Fatalf("in-memory state %s after a refused retry, want dead", got.State)
	}
	waitForDeadLetter(t, spool, j.ID)
	m2, err := New(Config{SpoolDir: spool})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := m2.Job(j.ID); err != nil || got.State != StateDead {
		t.Fatalf("recovered state %s (%v), want dead", got.State, err)
	}
	if len(m2.requeue) != 0 {
		t.Fatalf("recovery re-queues %v, want nothing", m2.requeue)
	}
}

// TestCancelStormFinishesEveryJob: jobs that succeed, back off, fail or
// dead-letter are cancelled at random moments while two workers run
// them. Whichever of the cancel and the outcome wins, every job ends
// finished, with its feed closed, and is counted exactly once across the
// finished series.
func TestCancelStormFinishesEveryJob(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := New(Config{SpoolDir: t.TempDir(), Workers: 2, BreakerThreshold: -1, Obs: reg.Observer()})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer stopManager(t, m)

	const n = 40
	rng := rand.New(rand.NewSource(1))
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := range ids {
		spec := Spec{Type: TypeProbe, Probe: &ProbeSpec{SleepMS: int64(rng.Intn(3))}}
		switch i % 3 {
		case 1:
			spec.Probe.Fail = true
			spec.Retry = &RetrySpec{MaxAttempts: 3, BackoffMS: 1, MaxBackoffMS: 2}
		case 2:
			spec.Probe.Fail = true
		}
		j, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
		delay := time.Duration(rng.Intn(4000)) * time.Microsecond
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			time.Sleep(delay)
			if err := m.Cancel(id); err != nil && !errors.Is(err, ErrJobDone) {
				t.Errorf("cancel %s: %v", id, err)
			}
		}(j.ID)
	}
	wg.Wait()
	timeout := time.After(30 * time.Second)
	for _, id := range ids {
		// The feed closes last, after the manifest write.
		for {
			_, closed, changed := m.feed(id).Since(0)
			if closed {
				break
			}
			select {
			case <-changed:
			case <-timeout:
				j, _ := m.Job(id)
				t.Fatalf("job %s (%s): feed still open", id, j.State)
			}
		}
		if j, _ := m.Job(id); !j.State.Terminal() || j.Finished == nil {
			t.Errorf("job %s closed its feed in state %s, finished %v", id, j.State, j.Finished)
		}
	}
	var total float64
	for _, s := range []string{seriesJobsDone, seriesJobsFailed, seriesJobsCancelled, seriesJobsDead} {
		total += reg.Counter(s, "").Value()
	}
	if total != n {
		t.Fatalf("finished series sum to %v, want %d", total, n)
	}
}

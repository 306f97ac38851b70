package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/field"
	"repro/internal/obs"
)

// testFieldSpec is a small churned field job: big enough that an epoch
// takes real work (so tests can interrupt mid-run), small enough to keep
// the suite fast.
func testFieldSpec(epochs int) Spec {
	return Spec{
		Type:    TypeField,
		Workers: 2,
		Field: &FieldSpec{
			Seed:              19,
			Side:              300,
			Heads:             5,
			Sensors:           90,
			SensorRange:       40,
			InterferenceRange: 80,
			BatteryJoules:     200,
			EpochCycles:       2,
			Epochs:            epochs,
			FaultRate:         0.5,
			Params: &ParamsSpec{
				RateBps:    15,
				CycleMS:    10000,
				Seed:       7,
				UseSectors: true,
			},
		},
	}
}

// runSpecDirect computes the reference result for a field spec through
// the field API alone — the bytes an uninterrupted service run must
// reproduce exactly.
func runSpecDirect(t *testing.T, spec Spec) []byte {
	t.Helper()
	f, cfg, err := spec.Field.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := field.New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.Run(exp.Options{Workers: spec.Workers})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// waitJob polls until cond holds or the deadline passes.
func waitJob(t *testing.T, m *Manager, id string, timeout time.Duration, cond func(Job) bool) Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j, err := m.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if cond(j) {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: timeout in state %s (epoch %d/%d, err %q)",
				id, j.State, j.Epoch, j.Epochs, j.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestKillAndResume is the service's acceptance contract: a job whose
// daemon dies mid-run (manager stopped, new manager over the same spool)
// resumes from its epoch checkpoint and finishes with a result
// byte-identical to an uninterrupted run.
func TestKillAndResume(t *testing.T) {
	const epochs = 8
	spec := testFieldSpec(epochs)
	want := runSpecDirect(t, spec)

	spool := t.TempDir()
	m1, err := New(Config{SpoolDir: spool, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m1.Start()
	j, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Let it checkpoint at least one boundary, then pull the plug. Stop
	// cancels the job's context; the runner stops at the next epoch
	// boundary and leaves the manifest saying "running" — the crash
	// marker.
	waitJob(t, m1, j.ID, 30*time.Second, func(x Job) bool { return x.Epoch >= 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := m1.Stop(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	cancel()

	// The job must not have finished — this test is about the resume
	// path. With 8 epochs and a stop triggered at epoch 1, completing
	// before the cancellation lands would need the remaining 7 epochs to
	// run inside the Stop call.
	if _, err := os.Stat(filepath.Join(spool, j.ID, "snapshot.json")); err != nil {
		t.Fatalf("no checkpoint on disk after interrupt: %v", err)
	}

	// A SIGKILL mid-write leaves temp debris behind; recovery must sweep
	// it (and must not mistake it for real state).
	debris := filepath.Join(spool, j.ID, "snapshot.json.tmp123")
	if err := os.WriteFile(debris, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	// "Restart the daemon": a fresh manager over the same spool.
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	m2, err := New(Config{SpoolDir: spool, Workers: 1, Obs: reg.Observer()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(debris); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("recovery left temp debris: %v", err)
	}
	rec, err := m2.Job(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateQueued {
		t.Fatalf("recovered state %s, want queued", rec.State)
	}
	m2.Start()
	fin := waitJob(t, m2, j.ID, 60*time.Second, func(x Job) bool { return x.State.Terminal() })
	if fin.State != StateDone {
		t.Fatalf("resumed job finished %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one interrupt, one resume)", fin.Attempts)
	}
	if got := reg.Counter(MetricResumes, "").Value(); got != 1 {
		t.Fatalf("%s = %v after the restart, want 1", MetricResumes, got)
	}
	if !bytes.Equal(fin.Result, want) {
		t.Fatalf("resumed result differs from uninterrupted run:\n got %d bytes\nwant %d bytes", len(fin.Result), len(want))
	}

	// The summary must cover the full schedule, not just the resumed tail.
	var sum field.Summary
	if err := json.Unmarshal(fin.Result, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Epochs != epochs {
		t.Fatalf("summary epochs = %d, want %d", sum.Epochs, epochs)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := m2.Stop(ctx2); err != nil {
		t.Fatal(err)
	}
}

// TestVersion2CheckpointRestarts: a checkpoint an older daemon left in
// the version-2 layout (dead and battery books as per-cluster arrays)
// reads as field.ErrSnapshotVersion, and the job restarts from epoch 0
// and still finishes with the uninterrupted run's summary.
func TestVersion2CheckpointRestarts(t *testing.T) {
	spec := testFieldSpec(8)
	want := runSpecDirect(t, spec)

	spool := t.TempDir()
	m1, err := New(Config{SpoolDir: spool, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m1.Start()
	j, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m1, j.ID, 30*time.Second, func(x Job) bool { return x.Epoch >= 1 })
	stopManager(t, m1)
	if x, err := m1.Job(j.ID); err != nil || x.State.Terminal() {
		t.Fatalf("job %v before the restart (%v); the test needs it interrupted", x.State, err)
	}

	// Rewrite the boundary record in the version-2 layout.
	path := filepath.Join(spool, j.ID, "snapshot.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, body, ok := bytes.Cut(data, []byte("\n"))
	if !ok {
		t.Fatal("boundary record has no header line")
	}
	var h, rec map[string]any
	if err := json.Unmarshal(header, &h); err != nil {
		t.Fatal(err)
	}
	var v3 struct {
		Clusters []field.ClusterDelta `json:"clusters"`
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &v3); err != nil {
		t.Fatal(err)
	}
	var dead [][]int
	for _, d := range v3.Clusters {
		sensors, v := []int{}, 0
		for _, g := range d.DeadGaps {
			v += g
			sensors = append(sensors, v)
		}
		dead = append(dead, sensors)
	}
	h["version"], rec["version"] = 2, 2
	delete(rec, "clusters")
	rec["dead"] = dead
	var v2 bytes.Buffer
	enc := json.NewEncoder(&v2)
	for _, x := range []any{h, rec} {
		if err := enc.Encode(x); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, v2.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := field.ReadSnapshotFile(path); !errors.Is(err, field.ErrSnapshotVersion) {
		t.Fatalf("version-2 checkpoint reads as %v, want ErrSnapshotVersion", err)
	}

	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	m2, err := New(Config{SpoolDir: spool, Workers: 1, Obs: reg.Observer()})
	if err != nil {
		t.Fatal(err)
	}
	m2.Start()
	defer stopManager(t, m2)
	fin := waitJob(t, m2, j.ID, 60*time.Second, func(x Job) bool { return x.State.Terminal() })
	if fin.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one interrupt, one restart)", fin.Attempts)
	}
	if got := reg.Counter(MetricResumes, "").Value(); got != 0 {
		t.Fatalf("%s = %v: the version-2 checkpoint was resumed, want a restart from epoch 0", MetricResumes, got)
	}
	if !bytes.Equal(fin.Result, want) {
		t.Fatalf("restarted result differs from uninterrupted run:\n got %d bytes\nwant %d bytes", len(fin.Result), len(want))
	}
}

// TestUninterruptedService pins the baseline: the service path with no
// interruption also reproduces the direct field result byte for byte.
func TestUninterruptedService(t *testing.T) {
	spec := testFieldSpec(3)
	want := runSpecDirect(t, spec)

	m, err := New(Config{SpoolDir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer stopManager(t, m)

	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, m, j.ID, 60*time.Second, func(x Job) bool { return x.State.Terminal() })
	if fin.State != StateDone {
		t.Fatalf("job finished %s (%s)", fin.State, fin.Error)
	}
	if fin.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", fin.Attempts)
	}
	if !bytes.Equal(fin.Result, want) {
		t.Fatal("service result differs from direct field run")
	}
}

// TestCheckpointStageObserved: every epoch boundary of a field job lands
// one sample in the checkpoint stage histogram.
func TestCheckpointStageObserved(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := New(Config{SpoolDir: t.TempDir(), Workers: 1, Obs: reg.Observer()})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer stopManager(t, m)
	j, err := m.Submit(testFieldSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitJob(t, m, j.ID, 60*time.Second, func(x Job) bool { return x.State.Terminal() }); fin.State != StateDone {
		t.Fatalf("job finished %s (%s)", fin.State, fin.Error)
	}
	if n := reg.Histogram(field.SeriesStageCheckpoint, "", nil).Count(); n != 3 {
		t.Fatalf("checkpoint stage samples = %d, want 3", n)
	}
}

// TestEpochEventFollowsCheckpoint: a field job streams an epoch only
// once its checkpoint commits. A non-empty directory at the snapshot path
// makes the first checkpoint write fail, so the job fails with no epoch
// event on its feed.
func TestEpochEventFollowsCheckpoint(t *testing.T) {
	m, err := New(Config{SpoolDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(testFieldSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(m.spool.SnapshotPath(j.ID), "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer stopManager(t, m)
	fin := waitJob(t, m, j.ID, 60*time.Second, func(x Job) bool { return x.State.Terminal() })
	if fin.State != StateFailed {
		t.Fatalf("job finished %s (%s), want failed at its first checkpoint", fin.State, fin.Error)
	}
	evs, _, _ := m.feed(j.ID).Since(0)
	for _, e := range evs {
		if e.Name == "epoch" {
			t.Fatalf("epoch event published without a committed checkpoint: %s", e.Data)
		}
	}
}

func stopManager(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Stop(ctx); err != nil {
		t.Errorf("stop: %v", err)
	}
}

// TestQueueBackpressure pins the bounded-queue contract: with one busy
// worker and a depth-1 queue, the third submission is refused with
// ErrQueueFull and leaves no debris in store or spool.
func TestQueueBackpressure(t *testing.T) {
	spool := t.TempDir()
	m, err := New(Config{SpoolDir: spool, Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer stopManager(t, m)

	j1, err := m.Submit(testFieldSpec(50))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker holds j1, so the queue slot is truly free.
	waitJob(t, m, j1.ID, 30*time.Second, func(x Job) bool { return x.State == StateRunning })

	j2, err := m.Submit(testFieldSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Submit(testFieldSpec(1))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	// The refused job must be fully rolled back: exactly j1 and j2 exist.
	if got := len(m.Jobs()); got != 2 {
		t.Fatalf("store holds %d jobs after refusal, want 2", got)
	}
	entries, err := os.ReadDir(spool)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("spool holds %d dirs after refusal, want 2", len(entries))
	}

	if err := m.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(j2.ID); err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, j1.ID, 30*time.Second, func(x Job) bool { return x.State.Terminal() })
}

// TestCancel covers both cancel paths: a queued job never starts; a
// running job stops at its next epoch boundary. Both end cancelled and
// durably so.
func TestCancel(t *testing.T) {
	spool := t.TempDir()
	m, err := New(Config{SpoolDir: spool, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer stopManager(t, m)

	running, err := m.Submit(testFieldSpec(100))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, running.ID, 30*time.Second, func(x Job) bool { return x.State == StateRunning })
	queued, err := m.Submit(testFieldSpec(1))
	if err != nil {
		t.Fatal(err)
	}

	// Queued cancel: immediate, terminal, never picked up.
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	q, _ := m.Job(queued.ID)
	if q.State != StateCancelled || q.Attempts != 0 {
		t.Fatalf("queued cancel: state %s attempts %d", q.State, q.Attempts)
	}

	// Running cancel: lands at the next boundary.
	if err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	r := waitJob(t, m, running.ID, 30*time.Second, func(x Job) bool { return x.State.Terminal() })
	if r.State != StateCancelled {
		t.Fatalf("running cancel: state %s", r.State)
	}
	if r.Attempts != 1 {
		t.Fatalf("running cancel: attempts %d", r.Attempts)
	}

	// Cancelling a terminal job is a conflict.
	if err := m.Cancel(running.ID); !errors.Is(err, ErrJobDone) {
		t.Fatalf("cancel of cancelled job: %v, want ErrJobDone", err)
	}

	// Durability: a fresh manager over the spool sees both cancelled,
	// neither re-queued.
	stopManager(t, m)
	m2, err := New(Config{SpoolDir: spool, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer stopManager(t, m2)
	for _, id := range []string{running.ID, queued.ID} {
		j, err := m2.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateCancelled {
			t.Fatalf("recovered %s: state %s, want cancelled", id, j.State)
		}
	}
}

// TestSweepJob runs a cut-down Fig. 7(a) sweep through the service and
// checks the result payload shape.
func TestSweepJob(t *testing.T) {
	m, err := New(Config{SpoolDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer stopManager(t, m)

	j, err := m.Submit(Spec{Type: TypeSweep, Workers: 2, Sweep: &SweepSpec{Fig: SweepFig7a, Quick: true}})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, m, j.ID, 120*time.Second, func(x Job) bool { return x.State.Terminal() })
	if fin.State != StateDone {
		t.Fatalf("sweep finished %s (%s)", fin.State, fin.Error)
	}
	var res sweepResult
	if err := json.Unmarshal(fin.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Fig != SweepFig7a || len(res.Points) == 0 || res.Table == "" {
		t.Fatalf("sweep result incomplete: fig %q, %d point bytes, table %d bytes",
			res.Fig, len(res.Points), len(res.Table))
	}
}

// TestSubmitValidation rejects malformed specs at the door.
func TestSubmitValidation(t *testing.T) {
	m, err := New(Config{SpoolDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer stopManager(t, m)

	bad := []Spec{
		{},
		{Type: "nonsense"},
		{Type: TypeField},
		{Type: TypeSweep},
		{Type: TypeField, Field: &FieldSpec{Heads: 0, Side: 100, Sensors: 10, SensorRange: 30, InterferenceRange: 50}},
		{Type: TypeField, Field: &FieldSpec{Heads: 2, Side: 100, Sensors: 10, SensorRange: 30, InterferenceRange: 50, FaultRate: 2}},
		{Type: TypeSweep, Sweep: &SweepSpec{Fig: "7z"}},
		{Type: TypeField, Field: &FieldSpec{Heads: 2, Side: 100, Sensors: 10, SensorRange: 30, InterferenceRange: 50}, Sweep: &SweepSpec{Fig: SweepFig7a}},
	}
	for i, spec := range bad {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if got := len(m.Jobs()); got != 0 {
		t.Fatalf("%d jobs in store after rejected submissions", got)
	}
}

// TestSubmitFullQueueSkipsSpool: a refused submit never touches the
// spool, so backpressure answers ErrQueueFull (HTTP 429) even when the
// spool is broken; a stopped manager still answers ErrStopped over a
// full queue.
func TestSubmitFullQueueSkipsSpool(t *testing.T) {
	m, err := New(Config{SpoolDir: t.TempDir(), Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Never started: the first job keeps the only queue slot.
	if _, err := m.Submit(Spec{Type: TypeProbe, Probe: &ProbeSpec{}}); err != nil {
		t.Fatal(err)
	}
	// A regular file where the spool directory was: any manifest write
	// would fail.
	dir := m.spool.Dir()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(Spec{Type: TypeProbe, Probe: &ProbeSpec{}}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit into a full queue: %v, want ErrQueueFull", err)
	}
	if got := len(m.Jobs()); got != 1 {
		t.Fatalf("store holds %d jobs after refusal, want 1", got)
	}

	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	stopManager(t, m)
	if _, err := m.Submit(Spec{Type: TypeProbe, Probe: &ProbeSpec{}}); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit to a stopped manager with a full queue: %v, want ErrStopped", err)
	}
}

// TestSubmitAfterStop: a stopping manager refuses work instead of
// accepting jobs it will never run.
func TestSubmitAfterStop(t *testing.T) {
	m, err := New(Config{SpoolDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	stopManager(t, m)
	if _, err := m.Submit(testFieldSpec(1)); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit after stop: %v, want ErrStopped", err)
	}
}

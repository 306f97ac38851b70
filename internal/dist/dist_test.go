package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/topo"
)

// testBuilder is the dist fixture: the same churned five-cluster field
// the field package pins its determinism contract on, six epochs so a
// kill after epoch 2 still leaves reassigned epochs to run. The spec
// bytes are ignored — the deployment is fixed — but every call returns a
// fresh field and propagation model, as a worker process building from
// the spec would.
func testBuilder(json.RawMessage) (*topo.Field, field.Config, error) {
	prop := radio.NewLogDistance(3.5, 1)
	tcfg := topo.DefaultConfig(0, 0)
	tcfg.Prop = prop
	tcfg.SensorRange = 40
	tcfg.HeadRange = 300
	f := topo.BuildField(19, 300, 5, 90)
	p := cluster.DefaultParams()
	p.RateBps = 15
	p.Cycle = 10 * time.Second
	p.UseSectors = true
	p.Seed = 7
	return f, field.Config{
		Topo:              tcfg,
		Params:            p,
		InterferenceRange: 80,
		BatteryJoules:     200,
		EpochCycles:       1,
		Epochs:            6,
		Churn: field.Churn{
			FaultRate:     0.5,
			ShadowSigmaDB: 3,
			ShadowEvery:   2,
		},
	}, nil
}

// referenceRun is the single-process ground truth: the byte target every
// distributed configuration must hit.
func referenceRun(t *testing.T) (sum, snap []byte) {
	t.Helper()
	f, cfg, err := testBuilder(nil)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := field.New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.Run(exp.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sumB, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := json.MarshalIndent(rt.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return sumB, snapB
}

// testConfig assembles a coordinator config over a fresh local fabric
// with n workers, tuned for fast failure detection in tests.
func testConfig(n int) (Config, *LocalTransport) {
	lt := NewLocalTransport()
	workers := make([]string, n)
	for i := range workers {
		workers[i] = fmt.Sprintf("w%d", i)
		lt.AddWorker(workers[i], NewWorkerHost(testBuilder))
	}
	return Config{
		Session:           "test-run",
		Spec:              json.RawMessage(`{}`),
		Build:             testBuilder,
		Workers:           workers,
		Transport:         lt,
		EpochTimeout:      30 * time.Second,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  100 * time.Millisecond,
		RetryAttempts:     2,
		Retry:             backoff.Policy{Base: time.Millisecond, Max: 5 * time.Millisecond},
	}, lt
}

func coordSummaryJSON(t *testing.T, s *field.Summary) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func coordSnapshotJSON(t *testing.T, co *Coordinator) []byte {
	t.Helper()
	b, err := json.MarshalIndent(co.rt.Snapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCoordinatorMatchesSingleProcess pins the distributed determinism
// contract over the full protocol stack (local transport with JSON wire
// round-trips): 1, 2 and 3 workers all produce the single-process bytes.
func TestCoordinatorMatchesSingleProcess(t *testing.T) {
	wantSum, wantSnap := referenceRun(t)
	for _, n := range []int{1, 2, 3} {
		cfg, _ := testConfig(n)
		co, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := co.Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", n, err)
		}
		if got := coordSummaryJSON(t, s); !bytes.Equal(got, wantSum) {
			t.Fatalf("workers=%d: distributed summary diverges from single-process run:\n got %s\nwant %s", n, got, wantSum)
		}
		if got := coordSnapshotJSON(t, co); !bytes.Equal(got, wantSnap) {
			t.Fatalf("workers=%d: distributed snapshot diverges from single-process run", n)
		}
	}
}

// TestCoordinatorSurvivesWorkerKill is the headline: three workers, one
// kill -9'd mid-run (after the epoch-2 commit). The coordinator writes
// it off, reassigns its clusters to the survivors from the last
// committed boundary, and still finishes byte-identical to the
// uninterrupted single-process run.
func TestCoordinatorSurvivesWorkerKill(t *testing.T) {
	wantSum, wantSnap := referenceRun(t)
	cfg, lt := testConfig(3)
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	cfg.Obs = reg.Observer()
	killed := false
	cfg.OnCommit = func(snap *field.Snapshot, rep *field.EpochReport) error {
		if rep.Epoch == 2 && !killed {
			killed = true
			lt.Kill("w1")
		}
		return nil
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("kill hook never fired")
	}
	if got := coordSummaryJSON(t, s); !bytes.Equal(got, wantSum) {
		t.Fatalf("post-kill summary diverges from single-process run:\n got %s\nwant %s", got, wantSum)
	}
	if got := coordSnapshotJSON(t, co); !bytes.Equal(got, wantSnap) {
		t.Fatal("post-kill snapshot diverges from single-process run")
	}
	var reassigns float64
	for _, m := range reg.Snapshot() {
		if m.Name == MetricShardReassigns {
			reassigns = m.Value
		}
	}
	if reassigns == 0 {
		t.Fatal("kill mid-run recorded no shard reassignments")
	}
}

// TestCoordinatorAllWorkersLost: killing the whole fleet fails the run
// with a useful error instead of hanging the barrier.
func TestCoordinatorAllWorkersLost(t *testing.T) {
	cfg, lt := testConfig(2)
	cfg.OnCommit = func(snap *field.Snapshot, rep *field.EpochReport) error {
		if rep.Epoch == 1 {
			lt.Kill("w0")
			lt.Kill("w1")
		}
		return nil
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Run(context.Background()); err == nil {
		t.Fatal("run succeeded with the whole fleet dead")
	}
}

// TestCoordinatorResume pins the coordinator's own crash recovery: abort
// after the epoch-3 commit, then resume from the persisted snapshot on a
// completely fresh fleet (the restart scenario — workers rebuilt, state
// re-seeded through adoption) and finish byte-identical.
func TestCoordinatorResume(t *testing.T) {
	wantSum, _ := referenceRun(t)
	sentinel := errors.New("simulated coordinator crash")

	cfg, _ := testConfig(2)
	var persisted []byte
	cfg.OnCommit = func(snap *field.Snapshot, rep *field.EpochReport) error {
		b, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		persisted = b
		if rep.Epoch == 3 {
			return sentinel
		}
		return nil
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Run(context.Background()); !errors.Is(err, sentinel) {
		t.Fatalf("aborted run returned %v, want the sentinel", err)
	}

	snap := new(field.Snapshot)
	if err := json.Unmarshal(persisted, snap); err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 4 {
		t.Fatalf("persisted snapshot at epoch %d, want 4", snap.Epoch)
	}
	cfg2, _ := testConfig(2)
	cfg2.Snapshot = snap
	co2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := co2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := coordSummaryJSON(t, s); !bytes.Equal(got, wantSum) {
		t.Fatalf("resumed distributed run diverges from single-process run:\n got %s\nwant %s", got, wantSum)
	}
}

// TestHTTPTransport runs the whole protocol over real HTTP servers
// mounting WorkerHost.Handler — the wire the daemons speak.
func TestHTTPTransport(t *testing.T) {
	wantSum, wantSnap := referenceRun(t)
	var workers []string
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(NewWorkerHost(testBuilder).Handler())
		defer srv.Close()
		workers = append(workers, srv.URL)
	}
	co, err := New(Config{
		Session:   "http-run",
		Spec:      json.RawMessage(`{}`),
		Build:     testBuilder,
		Workers:   workers,
		Transport: &HTTPTransport{},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := coordSummaryJSON(t, s); !bytes.Equal(got, wantSum) {
		t.Fatalf("HTTP summary diverges from single-process run:\n got %s\nwant %s", got, wantSum)
	}
	if got := coordSnapshotJSON(t, co); !bytes.Equal(got, wantSnap) {
		t.Fatal("HTTP snapshot diverges from single-process run")
	}
}

// TestWorkerHostOpenValidation: a coordinator and worker that build
// different worlds must not get past Open.
func TestWorkerHostOpenValidation(t *testing.T) {
	h := NewWorkerHost(testBuilder)
	if err := h.Open(OpenRequest{Session: "s", FieldHash: "feedfacefeedface"}); err == nil {
		t.Fatal("open accepted a mismatched field hash")
	}
	if err := h.Open(OpenRequest{Session: "s"}); err != nil {
		t.Fatalf("open without a hash pin: %v", err)
	}
	if err := h.Open(OpenRequest{Session: "s"}); err != nil {
		t.Fatalf("re-open of an existing session: %v", err)
	}
	if _, err := h.RunShard(EpochRequest{Session: "nope"}); !errors.Is(err, ErrNoSession) {
		t.Fatalf("run against unknown session: err = %v, want ErrNoSession", err)
	}
}

// assignOwners maps each cluster to the one worker an Assign result
// lists it under, failing the test on a duplicate or a missing cluster.
func assignOwners(t *testing.T, clusters []int, m map[string][]int) map[int]string {
	t.Helper()
	owner := make(map[int]string, len(clusters))
	for w, ks := range m {
		for _, k := range ks {
			if prev, dup := owner[k]; dup {
				t.Fatalf("cluster %d assigned to both %s and %s", k, prev, w)
			}
			owner[k] = w
		}
	}
	if len(owner) != len(clusters) {
		t.Fatalf("assignment covers %d of %d clusters", len(owner), len(clusters))
	}
	for _, k := range clusters {
		if _, ok := owner[k]; !ok {
			t.Fatalf("cluster %d not assigned", k)
		}
	}
	return owner
}

// TestAssignCoverage pins that Assign places every cluster on exactly
// one of the given workers, for any worker count, before and after a
// worker leaves.
func TestAssignCoverage(t *testing.T) {
	clusters := []int{0, 3, 4, 7, 11, 12, 19, 23, 31, 40}
	pools := [][]string{
		{"solo"},
		{"a", "b"},
		{"a", "b", "c", "d"},
		{"a", "b", "d"},
		{"w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8", "w9", "w10", "w11"},
	}
	for _, workers := range pools {
		m := Assign(clusters, workers)
		listed := make(map[string]bool, len(workers))
		for _, w := range workers {
			listed[w] = true
		}
		for w := range m {
			if !listed[w] {
				t.Fatalf("workers %v: cluster assigned to unknown worker %q", workers, w)
			}
		}
		assignOwners(t, clusters, m)
	}
}

// TestRendezvousStability pins the property reassignment relies on:
// removing one worker moves only that worker's clusters.
func TestRendezvousStability(t *testing.T) {
	clusters := make([]int, 40)
	for i := range clusters {
		clusters[i] = i
	}
	before := assignOwners(t, clusters, Assign(clusters, []string{"a", "b", "c", "d"}))
	after := assignOwners(t, clusters, Assign(clusters, []string{"a", "b", "d"}))
	for _, k := range clusters {
		was, is := before[k], after[k]
		if was != "c" && was != is {
			t.Fatalf("cluster %d moved %s→%s though only worker c was removed", k, was, is)
		}
		if was == "c" && is == "c" {
			t.Fatalf("cluster %d still on removed worker c", k)
		}
	}
}

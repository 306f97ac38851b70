package field

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/radio"
	"repro/internal/topo"
)

// buildChurnField builds a fresh (field, Config) pair with every churn
// family armed: injected faults, battery depletion and shadowing shifts
// on a log-distance model. Each call returns a fresh field and
// propagation instance, as a worker process builds its own from a spec;
// the runtime writes to neither.
func buildChurnField() (*topo.Field, Config) {
	prop := radio.NewLogDistance(3.5, 1)
	cfg := topo.DefaultConfig(0, 0)
	cfg.Prop = prop
	cfg.SensorRange = 40
	cfg.HeadRange = 300
	f := topo.BuildField(19, 300, 5, 90)
	p := cluster.DefaultParams()
	p.RateBps = 15
	p.Cycle = 10 * time.Second
	p.UseSectors = true
	p.Seed = 7
	return f, Config{
		Topo:              cfg,
		Params:            p,
		InterferenceRange: 80,
		BatteryJoules:     200,
		EpochCycles:       1,
		Epochs:            5,
		Churn: Churn{
			FaultRate:     0.5,
			ShadowSigmaDB: 3,
			ShadowEvery:   2,
		},
	}
}

func summaryJSON(t *testing.T, s *Summary) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func snapshotJSON(t *testing.T, rt *Runtime) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rt.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeterminismAcrossWorkers is the runtime's pinned contract: a churned
// run with one worker and with eight produces byte-identical summaries
// and snapshots. Run it under -race — it is also the cluster pool's data
// race probe.
func TestDeterminismAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]byte, []byte) {
		f, cfg := buildChurnField()
		rt, err := New(f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := rt.Run(exp.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if s.Epochs != 5 {
			t.Fatalf("workers=%d: epochs = %d, want 5", workers, s.Epochs)
		}
		if len(s.Deaths) == 0 {
			t.Fatalf("workers=%d: churn at rate 0.5 over 5 epochs injected nothing", workers)
		}
		return summaryJSON(t, s), snapshotJSON(t, rt)
	}
	sum1, snap1 := run(1)
	sum8, snap8 := run(8)
	if !bytes.Equal(sum1, sum8) {
		t.Fatalf("summary differs across worker counts:\n 1: %s\n 8: %s", sum1, sum8)
	}
	if !bytes.Equal(snap1, snap8) {
		t.Fatalf("snapshot differs across worker counts:\n 1: %s\n 8: %s", snap1, snap8)
	}
}

// TestDeterminismLargeField re-pins the Workers=1 vs Workers=8 contract
// at a scale where the sparse medium actually matters: ~1,200 sensors
// across ten clusters with faults and a shadow shift every epoch. Run it
// under -race along with TestDeterminismAcrossWorkers — the large rows
// make it the sparse store's concurrency probe.
func TestDeterminismLargeField(t *testing.T) {
	if testing.Short() {
		t.Skip("large-field test")
	}
	build := func() (*topo.Field, Config) {
		prop := radio.NewLogDistance(3.5, 1)
		cfg := topo.DefaultConfig(0, 0)
		cfg.Prop = prop
		cfg.SensorRange = 40
		cfg.HeadRange = 900
		f := topo.BuildField(4242, 800, 10, 1200)
		p := cluster.DefaultParams()
		p.RateBps = 15
		p.Cycle = 10 * time.Second
		p.UseSectors = true
		p.Seed = 7
		return f, Config{
			Topo:              cfg,
			Params:            p,
			InterferenceRange: 80,
			BatteryJoules:     200,
			EpochCycles:       1,
			Epochs:            2,
			Churn: Churn{
				FaultRate:     0.6,
				ShadowSigmaDB: 3,
				ShadowEvery:   1,
			},
		}
	}
	run := func(workers int) ([]byte, []byte) {
		f, cfg := build()
		rt, err := New(f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := rt.Run(exp.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return summaryJSON(t, s), snapshotJSON(t, rt)
	}
	sum1, snap1 := run(1)
	sum8, snap8 := run(8)
	if !bytes.Equal(sum1, sum8) {
		t.Fatalf("large-field summary differs across worker counts:\n 1: %s\n 8: %s", sum1, sum8)
	}
	if !bytes.Equal(snap1, snap8) {
		t.Fatal("large-field snapshot differs across worker counts")
	}
}

// TestCheckpointResume pins the snapshot sufficiency contract: serialize
// at an epoch boundary, rebuild the field from scratch, resume, and the
// final summary matches the uninterrupted run byte for byte.
func TestCheckpointResume(t *testing.T) {
	// Uninterrupted reference run.
	f, cfg := buildChurnField()
	rtA, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sA, err := rtA.Run(exp.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := summaryJSON(t, sA)

	// Interrupted run: two epochs, checkpoint through JSON.
	f2, cfg2 := buildChurnField()
	rtB, err := New(f2, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := rtB.RunEpoch(exp.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := rtB.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 2 {
		t.Fatalf("snapshot epoch = %d, want 2", snap.Epoch)
	}

	// Resume on a freshly rebuilt field and finish the schedule.
	f3, cfg3 := buildChurnField()
	rtC, err := Resume(f3, cfg3, snap)
	if err != nil {
		t.Fatal(err)
	}
	if rtC.Epoch() != 2 {
		t.Fatalf("resumed at epoch %d, want 2", rtC.Epoch())
	}
	sC, err := rtC.Run(exp.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := summaryJSON(t, sC); !bytes.Equal(got, want) {
		t.Fatalf("resumed run diverges from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

func TestResumeRejectsMismatch(t *testing.T) {
	f, cfg := buildChurnField()
	rt, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunEpoch(exp.Options{}); err != nil {
		t.Fatal(err)
	}
	snap := rt.Snapshot()

	// A different deployment must be rejected by fingerprint.
	other := topo.BuildField(20, 300, 5, 90)
	if _, err := Resume(other, cfg, snap); err == nil {
		t.Fatal("resume accepted a different field")
	}
	// A future format version must be rejected.
	bad := *snap
	bad.Version = SnapshotVersion + 1
	if _, err := Resume(f, cfg, &bad); err == nil {
		t.Fatal("resume accepted an unknown snapshot version")
	}
	// Disagreement on battery accounting must be rejected.
	noBatt := cfg
	noBatt.BatteryJoules = 0
	if _, err := Resume(f, noBatt, snap); err == nil {
		t.Fatal("resume accepted a battery snapshot into a mains config")
	}
}

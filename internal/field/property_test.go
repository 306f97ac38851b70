package field_test

// The differential property every cross-epoch cache answers to. A cache
// — the plan cache, the head's kept verdicts and sector partition — may
// change how fast a run goes but never what it produces: on randomly
// drawn small fields, a run whose caches persist (continuous, at any
// worker count, or sharded over a coordinator that loses a worker) ends
// with the Summary and Snapshot of a cold reference that resumes a fresh
// Runtime from the snapshot at every boundary, so that every cache
// starts empty each epoch. The file is an external test package so that
// it can drive internal/dist, which imports this package.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/field"
	"repro/internal/radio"
	"repro/internal/topo"
)

// propertyField draws a small churned field from seed: 60–400 sensors
// under 2–8 heads, fault rate in [0, 1), batteries on or off, sectors on
// or off, M in 1..4, 6–8 epochs, and a shadowing shift every 1–3 epochs
// or none. FieldSpec has no shadow setting, so the case is a
// field.Config. Every call returns a fresh field and propagation model,
// as each process of a distributed run builds its own.
func propertyField(seed int64) (*topo.Field, field.Config) {
	rng := rand.New(rand.NewSource(seed))
	sensors := 60 + rng.Intn(341)
	heads := 2 + rng.Intn(7)
	side := 30 * math.Sqrt(float64(sensors))

	tc := topo.DefaultConfig(0, 0)
	tc.Prop = radio.NewLogDistance(3.5, 1)
	tc.SensorRange = 35 + 15*rng.Float64()
	tc.HeadRange = side
	p := cluster.DefaultParams()
	p.RateBps = 15
	p.Cycle = 10 * time.Second
	p.Seed = rng.Int63n(1 << 20)
	p.M = 1 + rng.Intn(4)
	p.UseSectors = rng.Intn(2) == 0
	cfg := field.Config{
		Topo:              tc,
		Params:            p,
		InterferenceRange: 80,
		EpochCycles:       1 + rng.Intn(2),
		Epochs:            6 + rng.Intn(3),
		Churn:             field.Churn{FaultRate: rng.Float64()},
	}
	if rng.Intn(2) == 0 {
		cfg.BatteryJoules = 100 + 200*rng.Float64()
	}
	if rng.Intn(2) == 0 {
		cfg.Churn.ShadowSigmaDB = 2 + 2*rng.Float64()
		cfg.Churn.ShadowEvery = 1 + rng.Intn(3)
	}
	return topo.BuildField(seed, side, heads, sensors), cfg
}

// propertyBuilder is the dist Builder over propertyField: the spec is
// the case's seed.
func propertyBuilder(spec json.RawMessage) (*topo.Field, field.Config, error) {
	var seed int64
	if err := json.Unmarshal(spec, &seed); err != nil {
		return nil, field.Config{}, err
	}
	f, cfg := propertyField(seed)
	return f, cfg, nil
}

// propertyResult is what every configuration must agree on: the final
// Summary and Snapshot as compact JSON.
type propertyResult struct{ sum, snap []byte }

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// coldReference runs the case one epoch per Runtime: each boundary's
// snapshot goes through JSON and is resumed on a freshly built field.
func coldReference(t *testing.T, seed int64) propertyResult {
	t.Helper()
	f, cfg := propertyField(seed)
	rt, err := field.New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < cfg.Epochs; e++ {
		if e > 0 {
			var buf bytes.Buffer
			if err := rt.Snapshot().WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			snap, err := field.ReadSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			f, cfg := propertyField(seed)
			if rt, err = field.Resume(f, cfg, snap); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rt.RunEpoch(exp.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return propertyResult{marshal(t, rt.Summary()), marshal(t, rt.Snapshot())}
}

// continuous runs the case on one Runtime, every cache kept throughout.
func continuous(t *testing.T, seed int64, workers int) propertyResult {
	t.Helper()
	f, cfg := propertyField(seed)
	rt, err := field.New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.Run(exp.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return propertyResult{marshal(t, s), marshal(t, rt.Snapshot())}
}

// coordinated runs the case on a LocalTransport coordinator with the
// given workers; killAt >= 0 kills worker w1 after that epoch commits,
// so its clusters finish on adoptees.
func coordinated(t *testing.T, seed int64, workers, killAt int) propertyResult {
	t.Helper()
	lt := dist.NewLocalTransport()
	names := make([]string, workers)
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i)
		lt.AddWorker(names[i], dist.NewWorkerHost(propertyBuilder))
	}
	var last *field.Snapshot
	killed := false
	co, err := dist.New(dist.Config{
		Session:           "property",
		Spec:              json.RawMessage(fmt.Sprint(seed)),
		Build:             propertyBuilder,
		Workers:           names,
		Transport:         lt,
		EpochTimeout:      time.Minute,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  time.Second,
		RetryAttempts:     2,
		Retry:             backoff.Policy{Base: time.Millisecond, Max: 5 * time.Millisecond},
		OnCommit: func(snap *field.Snapshot, rep *field.EpochReport) error {
			last = snap
			if rep.Epoch == killAt {
				lt.Kill("w1")
				killed = true
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if killAt >= 0 && !killed {
		t.Fatalf("worker kill after epoch %d never fired", killAt)
	}
	return propertyResult{marshal(t, s), marshal(t, last)}
}

// TestCachesMatchColdReference is the property: for every seed, the cold
// reference, continuous runs with 1 and 3 workers, a coordinator with
// 1–3 workers, and a coordinator with 2–3 workers that loses one at a
// seeded epoch all end with byte-identical Summary and Snapshot. Run it
// under -race: the coordinator variants are also the dist layer's race
// probe on random fields.
func TestCachesMatchColdReference(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			_, cfg := propertyField(seed)
			rng := rand.New(rand.NewSource(^seed))
			workers := 1 + rng.Intn(3)
			killWorkers, killAt := 2+rng.Intn(2), rng.Intn(cfg.Epochs-1)
			want := coldReference(t, seed)
			runs := []struct {
				name string
				run  func() propertyResult
			}{
				{"continuous, 1 worker", func() propertyResult { return continuous(t, seed, 1) }},
				{"continuous, 3 workers", func() propertyResult { return continuous(t, seed, 3) }},
				{fmt.Sprintf("coordinator, %d workers", workers), func() propertyResult {
					return coordinated(t, seed, workers, -1)
				}},
				{fmt.Sprintf("coordinator, %d workers, w1 killed after epoch %d", killWorkers, killAt), func() propertyResult {
					return coordinated(t, seed, killWorkers, killAt)
				}},
			}
			for _, r := range runs {
				got := r.run()
				if !bytes.Equal(got.sum, want.sum) {
					t.Fatalf("%s: summary diverges from the cold reference:\n got %s\nwant %s", r.name, got.sum, want.sum)
				}
				if !bytes.Equal(got.snap, want.snap) {
					t.Fatalf("%s: snapshot diverges from the cold reference:\n got %s\nwant %s", r.name, got.snap, want.snap)
				}
			}
		})
	}
}

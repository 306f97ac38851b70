package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/radio"
	"repro/internal/topo"
)

// BenchmarkDistEpoch measures one distributed epoch barrier + merge over
// the in-process transport (JSON wire round-trips included) at 1, 2 and
// 4 workers — the protocol overhead on top of the simulation itself.
// Epochs just keep running past the spec's count; the barrier and merge
// don't care, which keeps b.N unconstrained.
func BenchmarkDistEpoch(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			cfg, _ := testConfig(n)
			co, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			open := OpenRequest{Session: cfg.Session, FieldHash: co.rt.FieldHash(), Spec: cfg.Spec}
			for _, w := range cfg.Workers {
				co.mu.Lock()
				co.live[w] = true
				co.lastOK[w] = time.Now()
				co.mu.Unlock()
				if err := cfg.Transport.Open(ctx, w, open); err != nil {
					b.Fatal(err)
				}
			}
			clusters := co.rt.ClusterIndexes()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := co.barrier(ctx, co.rt.Epoch(), clusters)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := co.rt.MergeEpoch(nil, results); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// builder100k is the 100,000-sensor fixture: the 10k field benchmark's
// geometry scaled 10x in area (same sensor density, same Voronoi cell
// size, 128 clusters) with shadow churn every epoch. Every worker's Open
// builds its own copy, so field construction must stay off the O(N^2)
// cliffs — this fixture is what forced ClusterGraph onto a grid index.
func builder100k(json.RawMessage) (*topo.Field, field.Config, error) {
	prop := radio.NewLogDistance(3.5, 1)
	tcfg := topo.DefaultConfig(0, 0)
	tcfg.Prop = prop
	tcfg.SensorRange = 40
	tcfg.HeadRange = 2000
	f := topo.BuildField(4242, 6400, 128, 100_000)
	p := cluster.DefaultParams()
	p.RateBps = 15
	p.Cycle = 10 * time.Second
	p.UseSectors = true
	return f, field.Config{
		Topo:              tcfg,
		Params:            p,
		InterferenceRange: 80,
		EpochCycles:       1,
		Epochs:            1 << 30,
		Churn:             field.Churn{ShadowSigmaDB: 3, ShadowEvery: 1},
	}, nil
}

// BenchmarkDistEpoch100k drives one distributed epoch barrier + merge
// over a 100,000-sensor field sharded across two workers on the
// in-process transport — JSON wire round-trips and delta-encoded
// adoption payloads included. Setup builds the field three times
// (coordinator + each worker), so expect minutes of untimed warm-up;
// run it pinned:
//
//	go test ./internal/dist/ -run xxx -bench DistEpoch100k -benchtime 1x
func BenchmarkDistEpoch100k(b *testing.B) {
	if testing.Short() {
		b.Skip("100k fixture takes minutes to build")
	}
	lt := NewLocalTransport()
	workers := []string{"w0", "w1"}
	for _, w := range workers {
		lt.AddWorker(w, NewWorkerHost(builder100k))
	}
	cfg := Config{
		Session:           "bench-100k",
		Spec:              json.RawMessage(`{}`),
		Build:             builder100k,
		Workers:           workers,
		Transport:         lt,
		EpochTimeout:      15 * time.Minute,
		HeartbeatInterval: time.Second,
		HeartbeatTimeout:  time.Minute,
		RetryAttempts:     2,
		Retry:             backoff.Policy{Base: time.Millisecond, Max: 5 * time.Millisecond},
	}
	co, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	open := OpenRequest{Session: cfg.Session, FieldHash: co.rt.FieldHash(), Spec: cfg.Spec}
	for _, w := range cfg.Workers {
		co.mu.Lock()
		co.live[w] = true
		co.lastOK[w] = time.Now()
		co.mu.Unlock()
		if err := cfg.Transport.Open(ctx, w, open); err != nil {
			b.Fatal(err)
		}
	}
	clusters := co.rt.ClusterIndexes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := co.barrier(ctx, co.rt.Epoch(), clusters)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := co.rt.MergeEpoch(nil, results); err != nil {
			b.Fatal(err)
		}
	}
}

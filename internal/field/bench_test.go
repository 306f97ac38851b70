package field

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/radio"
	"repro/internal/topo"
)

// BenchmarkFieldEpochLarge measures one epoch of a 10,000-sensor field
// with shadow churn every epoch — the large-field scale the sparse radio
// medium exists for. With the dense per-cluster power matrices this
// fixture's clusters alone would hold hundreds of millions of matrix
// entries; the sparse rows keep the whole run within a few hundred MB.
//
//	go run ./cmd/benchjson -bench FieldEpochLarge -benchtime 1x -o BENCH_PR6.json
func BenchmarkFieldEpochLarge(b *testing.B) {
	prop := radio.NewLogDistance(3.5, 1)
	cfg := topo.DefaultConfig(0, 0)
	cfg.Prop = prop
	cfg.SensorRange = 40
	cfg.HeadRange = 2000
	f := topo.BuildField(4242, 2000, 12, 10_000)
	p := cluster.DefaultParams()
	p.RateBps = 15
	p.Cycle = 10 * time.Second
	p.UseSectors = true
	rt, err := New(f, Config{
		Topo:              cfg,
		Params:            p,
		InterferenceRange: 80,
		EpochCycles:       1,
		Epochs:            1 << 30,
		Churn:             Churn{ShadowSigmaDB: 3, ShadowEvery: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	opts := exp.Options{Workers: 4}
	// One untimed epoch first: the runtime's reusable scratch (runner
	// buffers, routing workspaces, oracle verdict maps) fills on first
	// use, so the timed iterations measure the steady-state epoch the
	// field loop actually spends its life in.
	if _, err := rt.RunEpoch(opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.RunEpoch(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFieldEpoch measures one churn-free field epoch — the
// runtime's hot loop — on one goroutine versus a cluster pool of four.
// The speedup ceiling is the CPU count (and the largest cluster's share
// of the epoch); on a single-CPU host the pooled numbers mostly show the
// goroutine overhead.
//
//	go run ./cmd/benchjson -bench FieldEpoch -o BENCH_PR3.json
func BenchmarkFieldEpoch(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			f := topo.BuildField(877, 380, 6, 150)
			cfg := topo.DefaultConfig(0, 0)
			cfg.SensorRange = 40
			cfg.HeadRange = 380
			p := cluster.DefaultParams()
			p.RateBps = 15
			p.Cycle = 10 * time.Second
			p.UseSectors = true
			rt, err := New(f, Config{
				Topo:              cfg,
				Params:            p,
				InterferenceRange: 80,
				EpochCycles:       2,
				Epochs:            1 << 30, // never reached; RunEpoch is called directly
			})
			if err != nil {
				b.Fatal(err)
			}
			opts := exp.Options{Workers: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.RunEpoch(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

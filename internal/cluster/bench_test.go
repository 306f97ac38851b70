package cluster

import (
	"testing"

	"repro/internal/topo"
)

// BenchmarkRunnerCycleKept reruns polling cycles of a small sectored
// cluster on a kept scratch after warm-up cycles have taught the head
// every verdict and settled the plan: the steady state of a quiet field,
// where each epoch is all oracle hits and poller bookkeeping.
func BenchmarkRunnerCycleKept(b *testing.B) {
	c, err := topo.Build(topo.DefaultConfig(40, 5))
	if err != nil {
		b.Fatal(err)
	}
	p := DefaultParams()
	p.UseSectors = true
	r, err := NewRunner(c, p)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.Run(50); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunCycle(); err != nil {
			b.Fatal(err)
		}
	}
}

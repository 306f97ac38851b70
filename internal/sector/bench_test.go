package sector

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/topo"
)

func BenchmarkBuildPartition40(b *testing.B) {
	c, err := topo.Build(topo.DefaultConfig(40, 1))
	if err != nil {
		b.Fatal(err)
	}
	demand := make([]int, 41)
	for v := 1; v <= 40; v++ {
		demand[v] = 2
	}
	plan, err := routing.BalancedPaths(c.G, topo.Head, demand)
	if err != nil {
		b.Fatal(err)
	}
	routes := plan.CycleRoutes(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildPartition(c.G, topo.Head, routes, demand, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCPARSolve(b *testing.B) {
	inst, err := CPARFromPartition([]int{3, 2, 1, 2, 4, 5, 3, 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.SolveCPAR()
	}
}

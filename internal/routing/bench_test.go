package routing

import (
	"testing"

	"repro/internal/topo"
)

func benchSetup(b *testing.B, n int) (*topo.Cluster, []int) {
	b.Helper()
	c, err := topo.Build(topo.DefaultConfig(n, 1))
	if err != nil {
		b.Fatal(err)
	}
	demand := make([]int, n+1)
	for v := 1; v <= n; v++ {
		demand[v] = 2
	}
	return c, demand
}

func BenchmarkBalancedPaths30(b *testing.B) {
	c, demand := benchSetup(b, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BalancedPaths(c.G, topo.Head, demand); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBalancedPaths80(b *testing.B) {
	c, demand := benchSetup(b, 80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BalancedPaths(c.G, topo.Head, demand); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBalancedPaths200(b *testing.B) {
	c, demand := benchSetup(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BalancedPaths(c.G, topo.Head, demand); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCycleRoutes(b *testing.B) {
	c, demand := benchSetup(b, 50)
	plan, err := BalancedPaths(c.G, topo.Head, demand)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.CycleRoutes(i)
	}
}

func BenchmarkSourceRouteEncode(b *testing.B) {
	route := []int{42, 17, 9, 3, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeSourceRoute(route); err != nil {
			b.Fatal(err)
		}
	}
}

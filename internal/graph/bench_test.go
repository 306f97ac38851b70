package graph

import (
	"math/rand"
	"testing"
)

func benchRandomGraph(n int, p float64, seed int64) *Undirected {
	rng := rand.New(rand.NewSource(seed))
	g := NewUndirected(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

type benchEdge struct {
	u, v int
	c    int64
}

// clusterSizedEdges builds the edge list of a flow network the size the
// routing layer builds for a 60-sensor cluster (node splitting doubles
// the vertex count).
func clusterSizedEdges(n int) []benchEdge {
	rng := rand.New(rand.NewSource(1))
	var edges []benchEdge
	for u := 1; u < n-1; u++ {
		edges = append(edges, benchEdge{0, u, int64(1 + rng.Intn(3))})
		for k := 0; k < 4; k++ {
			if v := 1 + rng.Intn(n-2); v != u {
				edges = append(edges, benchEdge{u, v, 8})
			}
		}
		edges = append(edges, benchEdge{u, n - 1, 4})
	}
	return edges
}

func buildBench(n int, edges []benchEdge) *FlowNetwork {
	f := NewFlowNetwork(n)
	for _, e := range edges {
		f.AddEdge(e.u, e.v, e.c)
	}
	return f
}

func BenchmarkMaxFlowClusterSized(b *testing.B) {
	n := 122
	edges := clusterSizedEdges(n)
	b.Run("dinic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := buildBench(n, edges)
			f.MaxFlow(0, n-1)
		}
	})
	b.Run("edmondskarp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := buildBench(n, edges)
			f.MaxFlowEdmondsKarp(0, n-1)
		}
	})
}

func BenchmarkHamiltonianPath16(b *testing.B) {
	g := benchRandomGraph(16, 0.4, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HamiltonianPath(g)
	}
}

func BenchmarkGreedySetCover(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	universe := 80
	subsets := make([]Subset, 60)
	for i := range subsets {
		var elems []int
		for e := 0; e < universe; e++ {
			if rng.Float64() < 0.15 {
				elems = append(elems, e)
			}
		}
		elems = append(elems, rng.Intn(universe)) // never empty
		subsets[i] = Subset{Elements: elems, Cost: 1 + rng.Float64()*5}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := GreedySetCover(universe, subsets); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSixColoring(b *testing.B) {
	g := benchRandomGraph(100, 0.08, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SixColoring(g)
	}
}

func BenchmarkPartitionDP(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	a := make([]int, 40)
	for i := range a {
		a[i] = 1 + rng.Intn(200)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Partition(a)
	}
}

func BenchmarkBFSLevels(b *testing.B) {
	g := benchRandomGraph(500, 0.02, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFSLevels(0)
	}
}

package graph

import (
	"math/rand"
	"testing"
)

func TestMaxFlowTextbook(t *testing.T) {
	// Classic CLRS-style network.
	f := NewFlowNetwork(6)
	s, t0 := 0, 5
	f.AddEdge(0, 1, 16)
	f.AddEdge(0, 2, 13)
	f.AddEdge(1, 2, 10)
	f.AddEdge(2, 1, 4)
	f.AddEdge(1, 3, 12)
	f.AddEdge(3, 2, 9)
	f.AddEdge(2, 4, 14)
	f.AddEdge(4, 3, 7)
	f.AddEdge(3, 5, 20)
	f.AddEdge(4, 5, 4)
	if got := f.MaxFlow(s, t0); got != 23 {
		t.Fatalf("MaxFlow = %d want 23", got)
	}
	if err := f.CheckConservation(s, t0); err != nil {
		t.Fatal(err)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	f := NewFlowNetwork(3)
	f.AddEdge(0, 1, 5)
	if got := f.MaxFlow(0, 2); got != 0 {
		t.Fatalf("MaxFlow = %d want 0", got)
	}
}

func TestMaxFlowParallelPaths(t *testing.T) {
	f := NewFlowNetwork(4)
	f.AddEdge(0, 1, 3)
	f.AddEdge(1, 3, 3)
	f.AddEdge(0, 2, 2)
	f.AddEdge(2, 3, 2)
	if got := f.MaxFlow(0, 3); got != 5 {
		t.Fatalf("MaxFlow = %d want 5", got)
	}
}

func TestMaxFlowEdgeFlowAndEnds(t *testing.T) {
	f := NewFlowNetwork(2)
	e := f.AddEdge(0, 1, 7)
	if got := f.MaxFlow(0, 1); got != 7 {
		t.Fatalf("MaxFlow = %d want 7", got)
	}
	if f.EdgeFlow(e) != 7 {
		t.Fatalf("EdgeFlow = %d", f.EdgeFlow(e))
	}
	u, v := f.EdgeEnds(e)
	if u != 0 || v != 1 {
		t.Fatalf("EdgeEnds = %d,%d", u, v)
	}
}

func TestMaxFlowPanics(t *testing.T) {
	f := NewFlowNetwork(2)
	mustPanic(t, func() { f.AddEdge(0, 1, -1) })
	mustPanic(t, func() { f.MaxFlow(0, 0) })
	mustPanic(t, func() { f.EdgeFlow(1) }) // odd id = residual edge
}

// bruteMinCut enumerates all s-t cuts to find the minimum cut value.
func bruteMinCut(n int, edges [][3]int64, s, t int) int64 {
	best := int64(Inf)
	for mask := 0; mask < 1<<uint(n); mask++ {
		if mask&(1<<uint(s)) == 0 || mask&(1<<uint(t)) != 0 {
			continue
		}
		var cut int64
		for _, e := range edges {
			u, v, c := int(e[0]), int(e[1]), e[2]
			if mask&(1<<uint(u)) != 0 && mask&(1<<uint(v)) == 0 {
				cut += c
			}
		}
		if cut < best {
			best = cut
		}
	}
	return best
}

func TestMaxFlowEqualsMinCutRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		var edges [][3]int64
		f := NewFlowNetwork(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.45 {
					c := int64(rng.Intn(10) + 1)
					edges = append(edges, [3]int64{int64(u), int64(v), c})
					f.AddEdge(u, v, c)
				}
			}
		}
		s, t0 := 0, n-1
		got := f.MaxFlow(s, t0)
		want := bruteMinCut(n, edges, s, t0)
		if got != want {
			t.Fatalf("trial %d: flow %d != min cut %d", trial, got, want)
		}
		if err := f.CheckConservation(s, t0); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The residual-reachable set must form a cut of value == flow.
		reach := f.MinCutReachable(s)
		if !reach[s] || reach[t0] {
			t.Fatalf("trial %d: bad reachable set", trial)
		}
		var cut int64
		for _, e := range edges {
			if reach[e[0]] && !reach[e[1]] {
				cut += e[2]
			}
		}
		if cut != got {
			t.Fatalf("trial %d: residual cut %d != flow %d", trial, cut, got)
		}
	}
}

// randomFlowPair builds one random network twice, so Dinic and the
// Edmonds-Karp oracle can be run on identical inputs.
func randomFlowPair(rng *rand.Rand) (dinic, ek *FlowNetwork, n int) {
	n = 2 + rng.Intn(20)
	dinic, ek = NewFlowNetwork(n), NewFlowNetwork(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && rng.Float64() < 0.3 {
				c := int64(rng.Intn(20) + 1)
				if rng.Intn(8) == 0 {
					c = Inf // the routing networks mix Inf link arcs in
				}
				dinic.AddEdge(u, v, c)
				ek.AddEdge(u, v, c)
			}
		}
	}
	return dinic, ek, n
}

// TestDinicMatchesEdmondsKarp is the solver-equivalence property test: on
// randomized networks (including Inf-capacity arcs like the routing
// layer's link edges) Dinic and Edmonds-Karp must agree on the max-flow
// value, both flows must conserve, and the value must equal the min cut.
func TestDinicMatchesEdmondsKarp(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 300; trial++ {
		dn, ek, n := randomFlowPair(rng)
		s, t0 := 0, n-1
		got := dn.MaxFlow(s, t0)
		want := ek.MaxFlowEdmondsKarp(s, t0)
		if got != want {
			t.Fatalf("trial %d: Dinic %d != Edmonds-Karp %d", trial, got, want)
		}
		if err := dn.CheckConservation(s, t0); err != nil {
			t.Fatalf("trial %d: Dinic %v", trial, err)
		}
		if err := ek.CheckConservation(s, t0); err != nil {
			t.Fatalf("trial %d: oracle %v", trial, err)
		}
		if got >= Inf {
			continue // cut below Inf arcs is meaningless
		}
		reach := dn.MinCutReachable(s)
		for v := range reach {
			if dn.SourceSide(v) != reach[v] {
				t.Fatalf("trial %d: SourceSide(%d) = %v, residual reachability %v",
					trial, v, dn.SourceSide(v), reach[v])
			}
		}
		var cut int64
		for i := 0; i < dn.EdgeCount(); i++ {
			u, v := dn.EdgeEnds(2 * i)
			if reach[u] && !reach[v] {
				cut += dn.cap[2*i]
			}
		}
		if cut != got {
			t.Fatalf("trial %d: residual cut %d != flow %d", trial, cut, got)
		}
	}
}

package graph

import (
	"math/rand"
	"testing"
)

func TestUndirectedBasics(t *testing.T) {
	g := NewUndirected(4)
	if g.N() != 4 {
		t.Fatalf("N = %d", g.N())
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 1) // duplicate: no-op
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge {0,1} missing")
	}
	if g.HasEdge(0, 2) {
		t.Error("unexpected edge {0,2}")
	}
	if g.Degree(1) != 2 {
		t.Errorf("Degree(1) = %d", g.Degree(1))
	}
	if got := len(g.Edges()); got != 2 {
		t.Errorf("Edges count = %d", got)
	}
}

func TestUndirectedPanics(t *testing.T) {
	g := NewUndirected(2)
	mustPanic(t, func() { g.AddEdge(0, 0) })
	mustPanic(t, func() { g.AddEdge(0, 2) })
	mustPanic(t, func() { g.Neighbors(-1) })
	mustPanic(t, func() { NewUndirected(-1) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestBFSLevels(t *testing.T) {
	// 0-1-2-3 path plus isolated 4.
	g := NewUndirected(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	lv := g.BFSLevels(0)
	want := []int{0, 1, 2, 3, -1}
	for i := range want {
		if lv[i] != want[i] {
			t.Errorf("level[%d] = %d want %d", i, lv[i], want[i])
		}
	}
}

func TestBFSTree(t *testing.T) {
	g := NewUndirected(5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	par := g.BFSTree(0)
	if par[0] != 0 {
		t.Errorf("parent[0] = %d", par[0])
	}
	// 3 is discovered first by 1 (lower id processed first).
	if par[3] != 1 {
		t.Errorf("parent[3] = %d want 1", par[3])
	}
	// Walking parents must reach the root within n steps.
	for v := 0; v < 5; v++ {
		u := v
		for i := 0; i < 5 && u != 0; i++ {
			u = par[u]
		}
		if u != 0 {
			t.Errorf("vertex %d does not reach root", v)
		}
	}
}

func TestBFSLevelsRandomTriangleInequality(t *testing.T) {
	// For every edge {u,v}: |level(u)-level(v)| <= 1 on connected graphs.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(20)
		g := randomConnected(rng, n, 0.3)
		lv := g.BFSLevels(0)
		for _, e := range g.Edges() {
			d := lv[e[0]] - lv[e[1]]
			if d < -1 || d > 1 {
				t.Fatalf("edge %v spans levels %d,%d", e, lv[e[0]], lv[e[1]])
			}
		}
	}
}

// randomConnected builds a random connected graph: a random spanning tree
// plus each extra edge with probability p.
func randomConnected(rng *rand.Rand, n int, p float64) *Undirected {
	g := NewUndirected(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, rng.Intn(v))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

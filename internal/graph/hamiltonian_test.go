package graph

import (
	"math/rand"
	"testing"
)

func pathGraph(n int) *Undirected {
	g := NewUndirected(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i-1, i)
	}
	return g
}

func TestHamiltonianPathOnPath(t *testing.T) {
	for n := 0; n <= 8; n++ {
		g := pathGraph(n)
		p := HamiltonianPath(g)
		if p == nil {
			t.Fatalf("n=%d: no path found", n)
		}
		if !IsHamiltonianPath(g, p) {
			t.Fatalf("n=%d: invalid path %v", n, p)
		}
	}
}

func TestHamiltonianPathStar(t *testing.T) {
	// A star K_{1,3} has no Hamiltonian path.
	g := NewUndirected(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	if HasHamiltonianPath(g) {
		t.Fatal("star K_{1,3} should not have a Hamiltonian path")
	}
}

func TestHamiltonianPathComplete(t *testing.T) {
	g := NewUndirected(6)
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			g.AddEdge(u, v)
		}
	}
	p := HamiltonianPath(g)
	if !IsHamiltonianPath(g, p) {
		t.Fatalf("K6 path invalid: %v", p)
	}
}

func TestHamiltonianPathDisconnected(t *testing.T) {
	g := NewUndirected(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if HasHamiltonianPath(g) {
		t.Fatal("disconnected graph cannot have a Hamiltonian path")
	}
}

// bruteHamiltonian checks by permutation backtracking, independent of the DP.
func bruteHamiltonian(g *Undirected) bool {
	n := g.N()
	if n == 0 {
		return true
	}
	used := make([]bool, n)
	var dfs func(u, count int) bool
	dfs = func(u, count int) bool {
		if count == n {
			return true
		}
		for _, v := range g.Neighbors(u) {
			if !used[v] {
				used[v] = true
				if dfs(v, count+1) {
					return true
				}
				used[v] = false
			}
		}
		return false
	}
	for s := 0; s < n; s++ {
		used[s] = true
		if dfs(s, 1) {
			return true
		}
		used[s] = false
	}
	return false
}

func TestHamiltonianPathAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		g := NewUndirected(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.4 {
					g.AddEdge(u, v)
				}
			}
		}
		want := bruteHamiltonian(g)
		p := HamiltonianPath(g)
		got := p != nil
		if got != want {
			t.Fatalf("trial %d (n=%d): DP=%v brute=%v", trial, n, got, want)
		}
		if got && !IsHamiltonianPath(g, p) {
			t.Fatalf("trial %d: returned path %v invalid", trial, p)
		}
	}
}

func TestIsHamiltonianPathRejects(t *testing.T) {
	g := pathGraph(3)
	cases := [][]int{
		{0, 1},       // too short
		{0, 1, 1},    // repeat
		{0, 2, 1},    // non-adjacent step
		{0, 1, 3},    // out of range
		{-1, 1, 2},   // negative
		{0, 1, 2, 2}, // too long
	}
	for _, c := range cases {
		if IsHamiltonianPath(g, c) {
			t.Errorf("accepted invalid path %v", c)
		}
	}
	if !IsHamiltonianPath(g, []int{0, 1, 2}) {
		t.Error("rejected valid path")
	}
}

func TestHamiltonianPathSizeLimit(t *testing.T) {
	mustPanic(t, func() { HamiltonianPath(NewUndirected(25)) })
}

// HasHamiltonianPath reports whether g admits a Hamiltonian path.
func HasHamiltonianPath(g *Undirected) bool {
	return HamiltonianPath(g) != nil
}

// IsHamiltonianPath verifies that path visits every vertex of g exactly
// once and that consecutive vertices are adjacent.
func IsHamiltonianPath(g *Undirected, path []int) bool {
	if len(path) != g.N() {
		return false
	}
	seen := make([]bool, g.N())
	for _, v := range path {
		if v < 0 || v >= g.N() || seen[v] {
			return false
		}
		seen[v] = true
	}
	for i := 1; i < len(path); i++ {
		if !g.HasEdge(path[i-1], path[i]) {
			return false
		}
	}
	return true
}

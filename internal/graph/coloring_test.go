package graph

import (
	"math/rand"
	"testing"
)

func TestGreedyColoringProper(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(15)
		g := NewUndirected(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.4 {
					g.AddEdge(u, v)
				}
			}
		}
		colors, used := GreedyColoring(g, nil)
		if !IsProperColoring(g, colors) {
			t.Fatalf("trial %d: improper coloring %v", trial, colors)
		}
		maxDeg := 0
		for u := 0; u < n; u++ {
			if g.Degree(u) > maxDeg {
				maxDeg = g.Degree(u)
			}
		}
		if used > maxDeg+1 {
			t.Fatalf("trial %d: used %d colors > maxdeg+1 = %d", trial, used, maxDeg+1)
		}
	}
}

func TestGreedyColoringOrderValidation(t *testing.T) {
	g := NewUndirected(3)
	mustPanic(t, func() { GreedyColoring(g, []int{0}) })
}

func TestSixColoringOnPlanarLike(t *testing.T) {
	// Grid graphs are planar: SixColoring must use <= 6 colors (in fact
	// grids are 2-colorable; the bound test is the interesting invariant).
	for _, side := range []int{2, 3, 5} {
		n := side * side
		g := NewUndirected(n)
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				v := i*side + j
				if j+1 < side {
					g.AddEdge(v, v+1)
				}
				if i+1 < side {
					g.AddEdge(v, v+side)
				}
			}
		}
		colors, used := SixColoring(g)
		if !IsProperColoring(g, colors) {
			t.Fatalf("side %d: improper", side)
		}
		if used > 6 {
			t.Fatalf("side %d: used %d > 6 colors on a planar graph", side, used)
		}
	}
}

func TestSixColoringTriangulation(t *testing.T) {
	// A wheel W5 (hub + 5-cycle) is planar with chromatic number 4.
	g := NewUndirected(6)
	for i := 1; i <= 5; i++ {
		g.AddEdge(0, i)
		g.AddEdge(i, i%5+1)
	}
	colors, used := SixColoring(g)
	if !IsProperColoring(g, colors) {
		t.Fatal("improper wheel coloring")
	}
	if used > 6 {
		t.Fatalf("wheel used %d colors", used)
	}
	if ChromaticNumber(g) != 4 {
		t.Fatalf("wheel chromatic number = %d want 4", ChromaticNumber(g))
	}
}

func TestChromaticNumberSmall(t *testing.T) {
	cases := []struct {
		build func() *Undirected
		want  int
	}{
		{func() *Undirected { return NewUndirected(0) }, 0},
		{func() *Undirected { return NewUndirected(3) }, 1},
		{func() *Undirected { return pathGraph(4) }, 2},
		{func() *Undirected { // triangle
			g := NewUndirected(3)
			g.AddEdge(0, 1)
			g.AddEdge(1, 2)
			g.AddEdge(0, 2)
			return g
		}, 3},
		{func() *Undirected { // odd cycle C5
			g := NewUndirected(5)
			for i := 0; i < 5; i++ {
				g.AddEdge(i, (i+1)%5)
			}
			return g
		}, 3},
	}
	for i, c := range cases {
		if got := ChromaticNumber(c.build()); got != c.want {
			t.Errorf("case %d: chromatic = %d want %d", i, got, c.want)
		}
	}
}

func TestSixColoringMatchesChromaticLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(9)
		g := NewUndirected(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.35 {
					g.AddEdge(u, v)
				}
			}
		}
		colors, used := SixColoring(g)
		if !IsProperColoring(g, colors) {
			t.Fatalf("trial %d improper", trial)
		}
		if chi := ChromaticNumber(g); used < chi {
			t.Fatalf("trial %d: used %d < chromatic %d (impossible)", trial, used, chi)
		}
	}
}

func TestIsProperColoringRejects(t *testing.T) {
	g := pathGraph(3)
	if IsProperColoring(g, []int{0, 0, 1}) {
		t.Error("accepted monochromatic edge")
	}
	if IsProperColoring(g, []int{0, 1}) {
		t.Error("accepted short color slice")
	}
	if IsProperColoring(g, []int{0, -1, 0}) {
		t.Error("accepted negative color")
	}
}

// IsProperColoring reports whether colors assigns every vertex a
// non-negative color and no edge is monochromatic.
func IsProperColoring(g *Undirected, colors []int) bool {
	if len(colors) != g.N() {
		return false
	}
	for _, c := range colors {
		if c < 0 {
			return false
		}
	}
	for _, e := range g.Edges() {
		if colors[e[0]] == colors[e[1]] {
			return false
		}
	}
	return true
}

// ChromaticNumber computes the exact chromatic number by trying k = 1, 2,
// ... with backtracking. Exponential; for test validation on small graphs
// only (n ≤ ~12).
func ChromaticNumber(g *Undirected) int {
	n := g.N()
	if n == 0 {
		return 0
	}
	if n > 14 {
		panic("graph: ChromaticNumber limited to 14 vertices")
	}
	colors := make([]int, n)
	for k := 1; ; k++ {
		for i := range colors {
			colors[i] = -1
		}
		if kColorable(g, colors, 0, k) {
			return k
		}
	}
}

func kColorable(g *Undirected, colors []int, u, k int) bool {
	if u == g.N() {
		return true
	}
	for c := 0; c < k; c++ {
		ok := true
		for _, v := range g.Neighbors(u) {
			if colors[v] == c {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		colors[u] = c
		if kColorable(g, colors, u+1, k) {
			return true
		}
		colors[u] = -1
	}
	return false
}

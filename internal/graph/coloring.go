package graph

import "fmt"

// Graph coloring for inter-cluster interference removal (Section V-G):
// "Regarding a radio channel as a color, this problem is equivalent to
// giving adjacent clusters different colors... There exists a simple
// algorithm that uses at most 6 colors, using the property that in a
// planar graph, there must be a vertex with degree no more than 5."

// GreedyColoring colors g with the first-fit greedy rule in the given
// vertex order (or 0..n-1 when order is nil) and returns the color of each
// vertex and the number of colors used. The coloring is always proper.
func GreedyColoring(g *Undirected, order []int) (colors []int, used int) {
	n := g.N()
	if order == nil {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != n {
		panic(fmt.Sprintf("graph: order has %d vertices, graph has %d", len(order), n))
	}
	colors = make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	taken := make([]bool, n+1)
	for _, u := range order {
		for i := range taken {
			taken[i] = false
		}
		maxSeen := -1
		for _, v := range g.Neighbors(u) {
			if c := colors[v]; c >= 0 {
				taken[c] = true
				if c > maxSeen {
					maxSeen = c
				}
			}
		}
		c := 0
		for c <= maxSeen && taken[c] {
			c++
		}
		colors[u] = c
		if c+1 > used {
			used = c + 1
		}
	}
	return colors, used
}

// SixColoring colors g with the smallest-degree-last heuristic: repeatedly
// remove a minimum-degree vertex, then color in reverse removal order.
// For planar graphs (every subgraph has a vertex of degree ≤ 5) this uses
// at most 6 colors — the algorithm the paper cites from West's textbook.
// For arbitrary graphs it still produces a proper coloring with at most
// degeneracy+1 colors.
func SixColoring(g *Undirected) (colors []int, used int) {
	n := g.N()
	deg := make([]int, n)
	removed := make([]bool, n)
	for u := 0; u < n; u++ {
		deg[u] = g.Degree(u)
	}
	order := make([]int, 0, n)
	for len(order) < n {
		best := -1
		for u := 0; u < n; u++ {
			if !removed[u] && (best < 0 || deg[u] < deg[best]) {
				best = u
			}
		}
		removed[best] = true
		order = append(order, best)
		for _, v := range g.Neighbors(best) {
			if !removed[v] {
				deg[v]--
			}
		}
	}
	// Color in reverse removal order.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return GreedyColoring(g, order)
}

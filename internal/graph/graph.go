// Package graph implements the combinatorial machinery the polling system
// is built on: max-flow with node capacities (load-balanced relaying paths,
// Section III-A of the paper), Hamiltonian-path solvers (the NP-hardness
// reduction of Lemma 1), greedy Weighted Set Cover (acknowledgment
// collection, Section V-F), graph coloring (inter-cluster interference
// removal, Section V-G), and the Partition-problem solver behind the CPAR
// reduction (Theorem 5).
//
// Everything here is deterministic and allocation-conscious; graphs are
// indexed by small dense integer vertex ids.
package graph

import "fmt"

// Undirected is a simple undirected graph on vertices 0..N-1 stored as
// adjacency lists. Parallel edges and self-loops are rejected.
type Undirected struct {
	n   int
	adj [][]int
}

// NewUndirected returns an empty undirected graph with n vertices.
func NewUndirected(n int) *Undirected {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Undirected{n: n, adj: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Undirected) N() int { return g.n }

// AddEdge inserts the undirected edge {u,v}. It panics on out-of-range
// vertices or self-loops and is a no-op for duplicate edges.
func (g *Undirected) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", u))
	}
	if g.HasEdge(u, v) {
		return
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}

// AddEdgeUnique inserts the undirected edge {u,v} without the duplicate
// scan AddEdge performs. Callers must guarantee the edge is not already
// present — builders that enumerate each pair exactly once (like the
// connectivity rebuild over sparse neighbor rows) use it to avoid the
// O(degree) check per insertion, which matters at 10k-node clusters.
func (g *Undirected) AddEdgeUnique(u, v int) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", u))
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
}

// HasEdge reports whether the edge {u,v} exists.
func (g *Undirected) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of u. The returned slice must not
// be modified.
func (g *Undirected) Neighbors(u int) []int {
	g.check(u)
	return g.adj[u]
}

// Degree returns the number of neighbors of u.
func (g *Undirected) Degree(u int) int {
	g.check(u)
	return len(g.adj[u])
}

// Edges returns every edge exactly once as [2]int{u,v} with u < v.
func (g *Undirected) Edges() [][2]int {
	var es [][2]int
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				es = append(es, [2]int{u, v})
			}
		}
	}
	return es
}

// Equal reports whether g and h have identical vertex counts and
// elementwise-identical adjacency lists. It compares insertion order, not
// just set membership — two graphs built by the same deterministic
// procedure compare equal, which is exactly what revision-change detection
// needs: a false negative only costs a spurious revision bump, never a
// stale one.
func (g *Undirected) Equal(h *Undirected) bool {
	if g.n != h.n {
		return false
	}
	for u := 0; u < g.n; u++ {
		a, b := g.adj[u], h.adj[u]
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

func (g *Undirected) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", u, g.n))
	}
}

// BFSLevels runs a breadth-first search from src and returns the hop count
// of every vertex from src; unreachable vertices get level -1. This is how
// the cluster head computes sensor levels ("a sensor is in level i if its
// hop count is i").
func (g *Undirected) BFSLevels(src int) []int {
	g.check(src)
	level := make([]int, g.n)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if level[v] < 0 {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return level
}

// BFSTree runs a breadth-first search from src and returns for each vertex
// its parent on a shortest path toward src (parent[src] = src, unreachable
// vertices get -1). Ties are broken toward the smaller parent id, which is
// the "first sensor that discovered it" rule of Section V-A.
func (g *Undirected) BFSTree(src int) []int {
	g.check(src)
	parent := make([]int, g.n)
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = src
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if parent[v] < 0 {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return parent
}

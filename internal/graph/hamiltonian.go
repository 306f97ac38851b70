package graph

import "math/bits"

// This file implements Hamiltonian-path solvers. The paper's Lemma 1
// reduces Hamiltonian Path to the TSRF Polling problem: a TSRF with n
// branches admits a 2n-slot schedule iff the interference graph has a
// Hamiltonian path. The solvers here let tests and the cmd/nphard demo
// verify the reduction in both directions on small instances.

// HamiltonianPath returns a Hamiltonian path of g as an ordered vertex
// slice, or nil if none exists. It uses Held-Karp dynamic programming over
// subsets, O(2^n * n^2) time and O(2^n * n) space, practical to n ~ 20.
// The empty graph yields an empty (non-nil) path; a single vertex yields
// itself.
func HamiltonianPath(g *Undirected) []int {
	n := g.N()
	switch n {
	case 0:
		return []int{}
	case 1:
		return []int{0}
	}
	if n > 24 {
		panic("graph: HamiltonianPath limited to 24 vertices")
	}
	// adj bitmasks.
	adj := make([]uint32, n)
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			adj[u] |= 1 << uint(v)
		}
	}
	size := 1 << uint(n)
	// reach[mask] = bitmask of vertices v such that there is a path
	// visiting exactly the vertices of mask and ending at v.
	reach := make([]uint32, size)
	for v := 0; v < n; v++ {
		reach[1<<uint(v)] = 1 << uint(v)
	}
	full := uint32(size - 1)
	for mask := 1; mask < size; mask++ {
		ends := reach[mask]
		if ends == 0 {
			continue
		}
		for v := 0; v < n; v++ {
			if ends&(1<<uint(v)) == 0 {
				continue
			}
			// Extend the path ending at v to each unvisited neighbor.
			ext := adj[v] &^ uint32(mask)
			for ext != 0 {
				w := bits.TrailingZeros32(ext)
				ext &= ext - 1
				reach[mask|1<<uint(w)] |= 1 << uint(w)
			}
		}
	}
	if reach[full] == 0 {
		return nil
	}
	// Reconstruct by walking backwards.
	path := make([]int, 0, n)
	mask := int(full)
	// Pick any final endpoint.
	last := bits.TrailingZeros32(reach[full])
	path = append(path, last)
	for len(path) < n {
		prevMask := mask &^ (1 << uint(last))
		found := -1
		cands := reach[prevMask] & adj[last]
		if cands == 0 {
			// Should not happen if DP is consistent.
			panic("graph: Hamiltonian reconstruction failed")
		}
		found = bits.TrailingZeros32(cands)
		path = append(path, found)
		mask = prevMask
		last = found
	}
	// Reverse into forward order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

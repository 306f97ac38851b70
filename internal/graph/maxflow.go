package graph

import (
	"fmt"
	"math"
)

// Inf is the edge capacity used for "unlimited" arcs (e.g. wireless links
// in the relaying-path flow network, which the paper gives infinite
// capacity; only sensor nodes are capacity-limited).
const Inf = math.MaxInt64 / 4

// FlowNetwork is a directed flow network with integer capacities solved by
// Dinic max-flow; the Edmonds-Karp oracle the property tests hold it to
// lives in the package tests. Vertices are 0..N-1.
//
// Node capacities (the paper's per-sensor load bound delta) are expressed by
// the standard node-splitting construction; see the routing package for how
// the relaying-path network is assembled.
//
// The Dinic scratch state (level, current-arc, BFS queue) is allocated on
// the first solve and kept by Reuse, so a caller that rebuilds and solves
// a similarly-sized network over and over allocates nothing.
type FlowNetwork struct {
	n     int
	head  []int // head[e]: target vertex of edge e
	cap   []int64
	flow  []int64
	first [][]int // first[v]: indices of edges leaving v (incl. residual)

	// Dinic scratch, sized lazily on the first solve.
	level []int // BFS level per vertex, -1 unreached
	iter  []int // current-arc index into first[v]
	queue []int // BFS queue

	augments int
}

// NewFlowNetwork returns an empty network with n vertices.
func NewFlowNetwork(n int) *FlowNetwork {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &FlowNetwork{n: n, first: make([][]int, n)}
}

// N returns the number of vertices.
func (f *FlowNetwork) N() int { return f.n }

// EdgeCount returns the number of forward edges added with AddEdge; the
// i-th forward edge has id 2*i.
func (f *FlowNetwork) EdgeCount() int { return len(f.head) / 2 }

// AddEdge inserts a directed edge u->v with the given capacity and returns
// its edge id. The reverse residual edge is created automatically with
// capacity 0. Capacities must be non-negative.
func (f *FlowNetwork) AddEdge(u, v int, capacity int64) int {
	f.check(u)
	f.check(v)
	if capacity < 0 {
		panic(fmt.Sprintf("graph: negative capacity %d", capacity))
	}
	id := len(f.head)
	f.head = append(f.head, v, u)
	f.cap = append(f.cap, capacity, 0)
	f.flow = append(f.flow, 0, 0)
	f.first[u] = append(f.first[u], id)
	f.first[v] = append(f.first[v], id+1)
	return id
}

// Reuse makes the network an empty n-vertex network again, equivalent to
// NewFlowNetwork(n) but retaining every backing array — edge storage,
// adjacency buckets and Dinic scratch. The epoch-loop reuse hook: a
// caller that rebuilds a similarly-sized network every epoch allocates
// nothing once the arrays have grown to steady state.
func (f *FlowNetwork) Reuse(n int) {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	if n <= cap(f.first) {
		// Entries beyond the previous length keep their old buckets;
		// truncating every bucket to zero length preserves the storage.
		f.first = f.first[:n]
	} else {
		f.first = append(f.first[:cap(f.first)], make([][]int, n-cap(f.first))...)
	}
	for v := range f.first {
		f.first[v] = f.first[v][:0]
	}
	f.n = n
	f.head = f.head[:0]
	f.cap = f.cap[:0]
	f.flow = f.flow[:0]
	f.augments = 0
}

// EdgeFlow returns the current flow on edge id.
func (f *FlowNetwork) EdgeFlow(id int) int64 {
	if id < 0 || id >= len(f.flow) || id%2 != 0 {
		panic(fmt.Sprintf("graph: bad edge id %d", id))
	}
	return f.flow[id]
}

// EdgeEnds returns (u, v) for edge id.
func (f *FlowNetwork) EdgeEnds(id int) (int, int) {
	if id < 0 || id >= len(f.head) || id%2 != 0 {
		panic(fmt.Sprintf("graph: bad edge id %d", id))
	}
	return f.head[id+1], f.head[id]
}

// AugmentCount returns the number of augmenting paths pushed by the MaxFlow
// invocations since the network was built or last Reused; the routing
// layer surfaces it as routing_augment_paths_total.
func (f *FlowNetwork) AugmentCount() int { return f.augments }

func (f *FlowNetwork) check(u int) {
	if u < 0 || u >= f.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", u, f.n))
	}
}

// ensureScratch sizes the Dinic scratch buffers; after the first call
// solves on a network of the same size are allocation-free.
func (f *FlowNetwork) ensureScratch() {
	if len(f.level) != f.n {
		if cap(f.level) >= f.n {
			f.level = f.level[:f.n]
			f.iter = f.iter[:f.n]
		} else {
			f.level = make([]int, f.n)
			f.iter = make([]int, f.n)
			f.queue = make([]int, 0, f.n)
		}
	}
}

// MaxFlow pushes flow from s to t with Dinic's algorithm (BFS level graph
// plus current-arc blocking flow) and returns the flow added by this
// invocation; on a freshly built network that is the max-flow value. Flow
// state is retained so callers can decompose it into relaying paths
// afterwards.
//
// The paper invokes Ford-Fulkerson; Dinic is the standard polynomial-time
// refinement and is strictly faster than the Edmonds-Karp oracle of the
// package tests on the cluster-sized networks involved.
func (f *FlowNetwork) MaxFlow(s, t int) int64 {
	f.check(s)
	f.check(t)
	if s == t {
		panic("graph: max-flow source equals sink")
	}
	f.ensureScratch()
	var total int64
	for f.bfsLevel(s, t) {
		for i := range f.iter {
			f.iter[i] = 0
		}
		for {
			pushed := f.augment(s, t, Inf)
			if pushed == 0 {
				break
			}
			f.augments++
			total += pushed
		}
	}
	return total
}

// bfsLevel rebuilds the residual level graph from s and reports whether t
// is reachable.
func (f *FlowNetwork) bfsLevel(s, t int) bool {
	for i := range f.level {
		f.level[i] = -1
	}
	f.level[s] = 0
	q := f.queue[:0]
	q = append(q, s)
	for at := 0; at < len(q); at++ {
		u := q[at]
		for _, e := range f.first[u] {
			v := f.head[e]
			if f.level[v] < 0 && f.cap[e] > f.flow[e] {
				f.level[v] = f.level[u] + 1
				q = append(q, v)
			}
		}
	}
	f.queue = q
	return f.level[t] >= 0
}

// augment performs one current-arc DFS step, pushing at most limit units
// from u toward t along strictly level-increasing residual edges. It
// returns the amount pushed (0 when u is a dead end for this phase).
func (f *FlowNetwork) augment(u, t int, limit int64) int64 {
	if u == t {
		return limit
	}
	for ; f.iter[u] < len(f.first[u]); f.iter[u]++ {
		e := f.first[u][f.iter[u]]
		v := f.head[e]
		if f.level[v] != f.level[u]+1 || f.cap[e] <= f.flow[e] {
			continue
		}
		r := f.cap[e] - f.flow[e]
		if r > limit {
			r = limit
		}
		if d := f.augment(v, t, r); d > 0 {
			f.flow[e] += d
			f.flow[e^1] -= d
			return d
		}
	}
	return 0
}

// SourceSide reports whether v is reachable from the source in the
// residual graph of the last MaxFlow call. That call ends with a failed
// BFS whose levels it keeps, so after MaxFlow the source-side vertices
// form a minimum cut, read here without allocating. Valid only after
// MaxFlow and until the network next changes.
func (f *FlowNetwork) SourceSide(v int) bool {
	f.check(v)
	return f.level[v] >= 0
}

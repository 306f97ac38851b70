package graph

import "fmt"

// MaxFlowEdmondsKarp computes the maximum s-t flow with the Edmonds-Karp
// algorithm (BFS augmenting paths) and returns its value. It is the
// independent oracle the property tests compare Dinic against.
func (f *FlowNetwork) MaxFlowEdmondsKarp(s, t int) int64 {
	f.check(s)
	f.check(t)
	if s == t {
		panic("graph: max-flow source equals sink")
	}
	var total int64
	prevEdge := make([]int, f.n)
	for {
		// BFS on the residual graph.
		for i := range prevEdge {
			prevEdge[i] = -1
		}
		prevEdge[s] = -2
		queue := []int{s}
		for len(queue) > 0 && prevEdge[t] == -1 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range f.first[u] {
				v := f.head[e]
				if prevEdge[v] == -1 && f.cap[e]-f.flow[e] > 0 {
					prevEdge[v] = e
					queue = append(queue, v)
				}
			}
		}
		if prevEdge[t] == -1 {
			return total
		}
		// Find the bottleneck on the path.
		bottleneck := int64(Inf)
		for v := t; v != s; {
			e := prevEdge[v]
			if r := f.cap[e] - f.flow[e]; r < bottleneck {
				bottleneck = r
			}
			v = f.head[e^1]
		}
		// Augment.
		for v := t; v != s; {
			e := prevEdge[v]
			f.flow[e] += bottleneck
			f.flow[e^1] -= bottleneck
			v = f.head[e^1]
		}
		f.augments++
		total += bottleneck
	}
}

// MinCutReachable returns the set of vertices reachable from s in the
// residual graph after MaxFlow has been run; the edges crossing out of the
// set form a minimum cut. The tests check max-flow = min-cut with it and
// hold SourceSide to it.
func (f *FlowNetwork) MinCutReachable(s int) []bool {
	f.check(s)
	seen := make([]bool, f.n)
	seen[s] = true
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range f.first[u] {
			v := f.head[e]
			if !seen[v] && f.cap[e]-f.flow[e] > 0 {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return seen
}

// CheckConservation verifies that at every vertex other than s and t the
// net flow is zero, and that no edge exceeds its capacity. It returns an
// error describing the first violation, or nil.
func (f *FlowNetwork) CheckConservation(s, t int) error {
	net := make([]int64, f.n)
	for e := 0; e < len(f.head); e += 2 {
		fl := f.flow[e]
		if fl < 0 {
			return fmt.Errorf("edge %d has negative flow %d", e, fl)
		}
		if fl > f.cap[e] {
			return fmt.Errorf("edge %d flow %d exceeds capacity %d", e, fl, f.cap[e])
		}
		u, v := f.EdgeEnds(e)
		net[u] -= fl
		net[v] += fl
	}
	for v := range net {
		if v == s || v == t {
			continue
		}
		if net[v] != 0 {
			return fmt.Errorf("vertex %d violates conservation: net %d", v, net[v])
		}
	}
	return nil
}

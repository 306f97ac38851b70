// Package routing computes load-balanced relaying paths for a cluster
// (Section III-A of the paper): choose, for every sensor, paths to the
// cluster head such that the maximum per-sensor load — own packets plus
// relayed packets per duty cycle — is minimized.
//
// Following the paper (after Chang–Tassiulas and Bogdanov et al.), the
// min-max problem is solved through a flow network in which each sensor is
// split into an input and an output node joined by an arc of capacity
// delta; wireless links get infinite capacity and a super-source feeds
// each sensor its demand. The smallest delta whose max-flow satisfies all
// demand is the optimal max load. The paper increments delta by one and
// re-runs the flow ("we can start with a small delta ... then increment").
// This package runs the same ascent with two provably lossless shortcuts:
// it starts at a layer-cut lower bound instead of the largest demand, and
// each infeasible solve jumps delta by the step its min cut proves
// necessary instead of by one.
package routing

import (
	"fmt"

	"repro/internal/graph"
)

// WeightedPath is one relaying path carrying an integral number of packets
// per duty cycle.
type WeightedPath struct {
	// Nodes lists the path from the source sensor to the cluster head
	// inclusive: Nodes[0] is the sensor, Nodes[len-1] the head.
	Nodes []int
	// Weight is the number of packets per duty cycle routed on this path.
	Weight int
}

// Plan is the outcome of load-balanced routing for one cluster.
type Plan struct {
	// Head is the cluster head's node id.
	Head int
	// Delta is the achieved min-max sensor load (packets transmitted per
	// duty cycle by the busiest sensor, own packets included).
	Delta int
	// Paths[v] holds the relaying paths of sensor v; weights sum to v's
	// demand. Sensors with zero demand have no entry.
	Paths map[int][]WeightedPath
	// Solves counts the cold max-flow solves of the delta search, one per
	// probed delta: the first at the layer-cut lower bound, one after each
	// min-cut jump. The last is the feasible solve whose flow is
	// decomposed, so a count of 1 means the bound was already optimal
	// (see EXPERIMENTS.md).
	Solves int
	// AugmentingPaths sums the augmenting paths each of those solves
	// pushed.
	AugmentingPaths int
}

// BalancedPaths computes load-balanced relaying paths on the connectivity
// graph g toward head. demand[v] is the number of packets sensor v must
// deliver per duty cycle (demand[head] must be 0).
func BalancedPaths(g *graph.Undirected, head int, demand []int) (*Plan, error) {
	return BalancedPathsWS(nil, g, head, demand)
}

// BalancedPathsWS is BalancedPaths with a reusable Workspace; a nil
// workspace is replaced by a zero-value one private to the call. The
// returned plan is independent of the workspace and may outlive it — plan
// caches retain plans across epochs while the workspace is recycled.
func BalancedPathsWS(ws *Workspace, g *graph.Undirected, head int, demand []int) (*Plan, error) {
	if len(demand) != g.N() {
		return nil, fmt.Errorf("routing: demand has %d entries for %d nodes", len(demand), g.N())
	}
	if head < 0 || head >= g.N() {
		return nil, fmt.Errorf("routing: head %d out of range", head)
	}
	if demand[head] != 0 {
		return nil, fmt.Errorf("routing: head cannot have demand")
	}
	levels := g.BFSLevels(head)
	total, maxDemand := 0, 0
	for v, d := range demand {
		if d < 0 {
			return nil, fmt.Errorf("routing: negative demand %d at sensor %d", d, v)
		}
		if d > 0 && levels[v] < 0 {
			return nil, fmt.Errorf("routing: sensor %d has demand but no path to head", v)
		}
		total += d
		if d > maxDemand {
			maxDemand = d
		}
	}
	plan := &Plan{Head: head, Paths: make(map[int][]WeightedPath)}
	if total == 0 {
		return plan, nil
	}
	if ws == nil {
		ws = new(Workspace)
	}

	// The paper's "start with a small delta ... then increment", started
	// at the layer-cut lower bound and incremented by the step the min cut
	// of the last solve proves necessary instead of by one: every delta
	// skipped is infeasible, so the ascent still stops at the optimum.
	// Each probe is a cold solve on a network built at its delta, so the
	// feasible one is a cold solve at the optimum and its decomposed paths
	// are a pure function of (g, head, demand, delta).
	delta := layerBound(levels, demand, maxDemand)
	var nw *network
	for {
		nw = buildNetwork(ws, g, head, demand, int64(delta))
		flow := nw.fn.MaxFlow(nw.src, nw.sink)
		plan.Solves++
		plan.AugmentingPaths += nw.fn.AugmentCount()
		if flow == int64(total) {
			break
		}
		next, err := nw.cutTarget(delta, flow, total)
		if err != nil {
			return nil, err
		}
		delta = next
	}
	plan.Delta = delta
	paths, err := nw.decompose(ws, demand)
	if err != nil {
		return nil, err
	}
	plan.Paths = paths
	return plan, nil
}

// layerBound returns the layer-cut lower bound on the optimal delta.
// Along an edge the BFS level from the head changes by at most one, so
// every packet from a sensor at level >= L crosses the node arc of some
// sensor at level exactly L. Those |V_L| arcs of capacity delta carry the
// demand D(>=L), hence delta >= ceil(D(>=L) / |V_L|) for every L >= 1;
// a sensor's own packets cross its own arc, hence delta >= maxDemand.
func layerBound(levels, demand []int, maxDemand int) int {
	depth := 0
	for _, l := range levels {
		if l > depth {
			depth = l
		}
	}
	nodes := make([]int, depth+1)
	load := make([]int, depth+1)
	for v, l := range levels {
		if l > 0 {
			nodes[l]++
			load[l] += demand[v]
		}
	}
	bound, below := maxDemand, 0
	for l := depth; l >= 1; l-- {
		below += load[l]
		if b := (below + nodes[l] - 1) / nodes[l]; b > bound {
			bound = b
		}
	}
	return bound
}

// cutTarget returns the smallest delta still possible after a solve at
// delta ended with flow value flow < total. The source side of the
// residual graph is then a min cut of capacity flow. Link arcs are
// uncapacitated, so the cut holds only source arcs, whose capacity is
// fixed, and k node arcs in(v)->out(v) of capacity delta each; at any
// delta' it has capacity flow + k*(delta'-delta). No delta' below
// delta + ceil((total-flow)/k) can saturate every source, so the target
// never passes the optimum.
func (nw *network) cutTarget(delta int, flow int64, total int) (int, error) {
	k := int64(0)
	for v, id := range nw.nodeEdge {
		if id >= 0 && nw.fn.SourceSide(2*v) && !nw.fn.SourceSide(2*v+1) {
			k++
		}
	}
	if k == 0 {
		return 0, fmt.Errorf("routing: no feasible delta up to total demand %d", total)
	}
	return delta + int((int64(total)-flow+k-1)/k), nil
}

// network is the node-split flow network of Section III-A.
type network struct {
	fn        *graph.FlowNetwork
	src, sink int
	n         int // original node count
	head      int
	srcEdge   []int // per-sensor source arc id (-1 if no demand)
	nodeEdge  []int // per-sensor in->out arc id (-1 for head)
}

// buildNetwork assembles the flow network: vertices 2v (input) and 2v+1
// (output) for every original node v, a super source and the head's input
// as sink. Link arcs need no lookup structure: the decomposition walks all
// forward edges by id. The network lives in the workspace, whose backing
// arrays it reuses.
func buildNetwork(ws *Workspace, g *graph.Undirected, head int, demand []int, delta int64) *network {
	n := g.N()
	nw := &ws.nw
	if nw.fn == nil {
		nw.fn = graph.NewFlowNetwork(2*n + 1)
	} else {
		nw.fn.Reuse(2*n + 1)
	}
	fn := nw.fn
	nw.src = 2 * n
	nw.sink = 2*head + 0 // head's input node collects all packets
	nw.n, nw.head = n, head
	nw.srcEdge = intSlice(nw.srcEdge, n)
	nw.nodeEdge = intSlice(nw.nodeEdge, n)
	in := func(v int) int { return 2 * v }
	out := func(v int) int { return 2*v + 1 }
	for v := 0; v < n; v++ {
		nw.srcEdge[v], nw.nodeEdge[v] = -1, -1
		if v == head {
			continue
		}
		// Node capacity delta bounds own + relayed packets.
		nw.nodeEdge[v] = fn.AddEdge(in(v), out(v), delta)
		if demand[v] > 0 {
			nw.srcEdge[v] = fn.AddEdge(nw.src, in(v), int64(demand[v]))
		}
	}
	// Each undirected edge once with u < v, in adjacency order — the same
	// enumeration g.Edges() produces, walked in place so the edge-id
	// assignment (and with it the decomposition) is unchanged.
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if v < u {
				continue
			}
			// Directed arcs from each sensor's output to its neighbor's
			// input. Arcs into the head terminate at the sink.
			if u != head && v != head {
				fn.AddEdge(out(u), in(v), graph.Inf)
				fn.AddEdge(out(v), in(u), graph.Inf)
			} else {
				s := u
				if s == head {
					s = v
				}
				fn.AddEdge(out(s), nw.sink, graph.Inf)
			}
		}
	}
	return nw
}

// decomposer peels a solved flow into weighted paths using slice-indexed
// state only: remaining flow per forward edge, a CSR adjacency of the
// positive-flow edges (ascending edge id, so the result is byte-identical
// to the earlier sorted-map implementation), a current-arc cursor per
// vertex, and a generation-stamped visited marker for cycle detection.
type decomposer struct {
	nw  *network
	rem []int64 // rem[i]: un-peeled flow on forward edge 2*i

	outStart []int // CSR offsets per vertex into outList
	outList  []int // forward edge indices with positive flow, by tail
	cursor   []int // per-vertex current arc: earlier entries are exhausted

	seenGen int
	seenAt  []int // walk index of a vertex, valid when seenStamp matches
	seenIn  []int // generation stamp for seenAt

	walk []int // forward edge indices of the current walk
}

// reset re-indexes the positive-flow forward edges of the solved network,
// reusing the decomposer's backing arrays when they are large enough.
// seenGen survives resets and only grows, so stale generation stamps in a
// reused (or resliced-within-capacity) seenIn can never match a future
// walk's generation.
func (d *decomposer) reset(nw *network) {
	fn := nw.fn
	nEdges := fn.EdgeCount()
	nVerts := fn.N()
	d.nw = nw
	d.rem = int64Slice(d.rem, nEdges)
	d.outStart = intSlice(d.outStart, nVerts+1)
	clear(d.outStart)
	d.cursor = intSlice(d.cursor, nVerts)
	d.seenAt = intSlice(d.seenAt, nVerts)
	d.seenIn = intSlice(d.seenIn, nVerts)
	cnt := 0
	for i := 0; i < nEdges; i++ {
		if fl := fn.EdgeFlow(2 * i); fl > 0 {
			d.rem[i] = fl
			u, _ := fn.EdgeEnds(2 * i)
			d.outStart[u+1]++
			cnt++
		} else {
			d.rem[i] = 0
		}
	}
	for v := 0; v < nVerts; v++ {
		d.outStart[v+1] += d.outStart[v]
	}
	d.outList = intSlice(d.outList, cnt)
	copy(d.cursor, d.outStart[:nVerts])
	fill := d.cursor
	for i := 0; i < nEdges; i++ {
		if d.rem[i] > 0 {
			u, _ := fn.EdgeEnds(2 * i)
			d.outList[fill[u]] = i
			fill[u]++
		}
	}
	copy(d.cursor, d.outStart[:nVerts])
}

// nextEdge returns the lowest-id positive-flow forward edge leaving u, or
// -1. Remaining flow only ever decreases, so the cursor may permanently
// skip exhausted edges (current-arc).
func (d *decomposer) nextEdge(u int) int {
	for c := d.cursor[u]; c < d.outStart[u+1]; c++ {
		if i := d.outList[c]; d.rem[i] > 0 {
			d.cursor[u] = c
			return i
		}
	}
	d.cursor[u] = d.outStart[u+1]
	return -1
}

// decompose peels the solved flow into per-sensor weighted paths. Flow
// cycles (possible in principle after augmentation) are cancelled on the
// fly. The decomposer's state lives in the workspace.
func (nw *network) decompose(ws *Workspace, demand []int) (map[int][]WeightedPath, error) {
	d := &ws.dec
	d.reset(nw)
	paths := make(map[int][]WeightedPath)
	// Peel demand[v] units per sensor, in sensor order for determinism.
	for v := 0; v < nw.n; v++ {
		if v == nw.head || demand[v] == 0 {
			continue
		}
		need := int64(demand[v])
		for need > 0 {
			route, amount, err := d.peel(v, need)
			if err != nil {
				return nil, err
			}
			paths[v] = append(paths[v], WeightedPath{Nodes: route, Weight: int(amount)})
			need -= amount
		}
	}
	return paths, nil
}

// peel extracts one path for sensor v of at most maxAmount units, walking
// positive-flow edges from v's input node to the sink and cancelling any
// cycles encountered.
func (d *decomposer) peel(v int, maxAmount int64) ([]int, int64, error) {
	nw := d.nw
	srcID := nw.srcEdge[v]
	if srcID < 0 || d.rem[srcID/2] <= 0 {
		return nil, 0, fmt.Errorf("routing: decomposition missing supply for sensor %d", v)
	}
	for {
		// Walk from in(v); nodeEdge then link edges until sink. The walk
		// stores forward edge indices (edge id / 2).
		d.walk = append(d.walk[:0], srcID/2)
		d.seenGen++
		d.seenIn[2*v] = d.seenGen
		d.seenAt[2*v] = 0
		cur := 2 * v
		cycled := false
		for cur != nw.sink {
			i := d.nextEdge(cur)
			if i == -1 {
				return nil, 0, fmt.Errorf("routing: decomposition stuck at vertex %d", cur)
			}
			_, to := nw.fn.EdgeEnds(2 * i)
			if d.seenIn[to] == d.seenGen {
				// Cancel the cycle: the edges after reaching `to` the
				// first time, up to and including i.
				at := d.seenAt[to]
				cyc := d.walk[at+1:]
				m := d.rem[i]
				for _, e := range cyc {
					if d.rem[e] < m {
						m = d.rem[e]
					}
				}
				for _, e := range cyc {
					d.rem[e] -= m
				}
				d.rem[i] -= m
				cycled = true
				break
			}
			d.walk = append(d.walk, i)
			d.seenIn[to] = d.seenGen
			d.seenAt[to] = len(d.walk) - 1
			cur = to
		}
		if cycled {
			continue
		}
		// Bottleneck along the walk, capped by the remaining demand.
		amount := maxAmount
		for _, e := range d.walk {
			if d.rem[e] < amount {
				amount = d.rem[e]
			}
		}
		if amount <= 0 {
			return nil, 0, fmt.Errorf("routing: zero bottleneck for sensor %d", v)
		}
		for _, e := range d.walk {
			d.rem[e] -= amount
		}
		// Convert split vertices back to node ids: the walk visits
		// src->in(v)->out(v)->in(u)->out(u)->...->sink.
		route := []int{v}
		for _, e := range d.walk[1:] {
			_, to := nw.fn.EdgeEnds(2 * e)
			if to == nw.sink {
				route = append(route, nw.head)
			} else if to%2 == 0 && to/2 != route[len(route)-1] {
				route = append(route, to/2)
			}
		}
		return route, amount, nil
	}
}

// CycleRoutes selects one route per sensor for the given duty-cycle index
// by rotating through the plan's weighted paths in proportion to their
// weights — the "multiple paths rotation" of Section V-D. The same cycle
// index always yields the same routes.
func (p *Plan) CycleRoutes(cycle int) map[int][]int {
	if cycle < 0 {
		cycle = -cycle
	}
	routes := make(map[int][]int, len(p.Paths))
	for v, ps := range p.Paths {
		total := 0
		for _, wp := range ps {
			total += wp.Weight
		}
		slot := cycle % total
		for _, wp := range ps {
			if slot < wp.Weight {
				routes[v] = wp.Nodes
				break
			}
			slot -= wp.Weight
		}
	}
	return routes
}

// DependentTable builds, for each sensor, the one-hop next-hop table for
// all of its dependents under the given per-cycle routes (Section V-C's
// alternative to source routing): table[u][w] = v means packets
// originating at w arriving at u are forwarded to v.
func DependentTable(routes map[int][]int) map[int]map[int]int {
	table := make(map[int]map[int]int)
	for w, r := range routes {
		for i := 0; i+1 < len(r); i++ {
			u := r[i]
			if table[u] == nil {
				table[u] = make(map[int]int)
			}
			table[u][w] = r[i+1]
		}
	}
	return table
}

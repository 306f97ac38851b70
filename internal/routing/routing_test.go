package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
)

// lineCluster builds head(0) - 1 - 2 - ... - n as a path.
func lineCluster(n int) *graph.Undirected {
	g := graph.NewUndirected(n + 1)
	for v := 1; v <= n; v++ {
		g.AddEdge(v-1, v)
	}
	return g
}

func unitDemand(n int) []int {
	d := make([]int, n+1)
	for v := 1; v <= n; v++ {
		d[v] = 1
	}
	return d
}

func TestBalancedPathsLine(t *testing.T) {
	// On a line every packet must pass through sensor 1: delta = n.
	g := lineCluster(4)
	plan, err := BalancedPaths(g, 0, unitDemand(4))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Delta != 4 {
		t.Fatalf("Delta = %d want 4", plan.Delta)
	}
	r := plan.CycleRoutes(0)
	want := map[int][]int{
		1: {1, 0}, 2: {2, 1, 0}, 3: {3, 2, 1, 0}, 4: {4, 3, 2, 1, 0},
	}
	for v, w := range want {
		got := r[v]
		if len(got) != len(w) {
			t.Fatalf("route[%d] = %v want %v", v, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("route[%d] = %v want %v", v, got, w)
			}
		}
	}
}

func TestBalancedPathsParallelBranches(t *testing.T) {
	// Two first-level sensors 1,2; second-level sensor 3 connected to
	// both. Demands 1 each. Optimal delta = 2 (3's packet must add to one
	// branch).
	g := graph.NewUndirected(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	plan, err := BalancedPaths(g, 0, []int{0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Delta != 2 {
		t.Fatalf("Delta = %d want 2", plan.Delta)
	}
	if got := plan.MaxLoad(4); got != 2 {
		t.Fatalf("MaxLoad = %d want 2", got)
	}
}

func TestBalancedPathsSplitsFlow(t *testing.T) {
	// Sensor 3 has demand 2 and two branches whose first-level sensors
	// each carry their own packet; the min-max solution must route one of
	// 3's packets per branch: delta = 2, not 3.
	g := graph.NewUndirected(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	plan, err := BalancedPaths(g, 0, []int{0, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Delta != 2 {
		t.Fatalf("Delta = %d want 2", plan.Delta)
	}
	ps := plan.Paths[3]
	if len(ps) != 2 {
		t.Fatalf("expected split into 2 paths, got %v", ps)
	}
	// Rotation must alternate between the two paths.
	r0 := plan.CycleRoutes(0)[3]
	r1 := plan.CycleRoutes(1)[3]
	if r0[1] == r1[1] {
		t.Fatalf("rotation did not alternate: %v vs %v", r0, r1)
	}
	if got := plan.CycleRoutes(2)[3]; got[1] != r0[1] {
		t.Fatalf("rotation period wrong: cycle2 %v want %v", got, r0)
	}
}

func TestPlanInvariantsOnRealClusters(t *testing.T) {
	for _, n := range []int{10, 30, 50} {
		c, err := topo.Build(topo.DefaultConfig(n, int64(n)))
		if err != nil {
			t.Fatal(err)
		}
		demand := make([]int, n+1)
		rng := rand.New(rand.NewSource(int64(n)))
		for v := 1; v <= n; v++ {
			demand[v] = 1 + rng.Intn(3)
		}
		plan, err := BalancedPaths(c.G, topo.Head, demand)
		if err != nil {
			t.Fatal(err)
		}
		// Path weights must sum to demand and every path must be a valid
		// walk on the connectivity graph ending at the head.
		for v := 1; v <= n; v++ {
			sum := 0
			for _, wp := range plan.Paths[v] {
				sum += wp.Weight
				if wp.Nodes[0] != v || wp.Nodes[len(wp.Nodes)-1] != topo.Head {
					t.Fatalf("n=%d sensor %d: bad endpoints %v", n, v, wp.Nodes)
				}
				for i := 1; i < len(wp.Nodes); i++ {
					if !c.G.HasEdge(wp.Nodes[i-1], wp.Nodes[i]) {
						t.Fatalf("n=%d sensor %d: non-edge step in %v", n, v, wp.Nodes)
					}
				}
				seen := map[int]bool{}
				for _, x := range wp.Nodes {
					if seen[x] {
						t.Fatalf("n=%d sensor %d: loop in path %v", n, v, wp.Nodes)
					}
					seen[x] = true
				}
			}
			if sum != demand[v] {
				t.Fatalf("n=%d sensor %d: weights sum %d != demand %d", n, v, sum, demand[v])
			}
		}
		// Average load over the full rotation must respect delta.
		if got := plan.MaxLoad(n + 1); got > plan.Delta {
			t.Fatalf("n=%d: MaxLoad %d exceeds delta %d", n, got, plan.Delta)
		}
	}
}

func TestDeltaIsOptimalOnSmallClusters(t *testing.T) {
	// Brute-force optimality check: try all single-path assignments (each
	// sensor one shortest-ish path) — delta from the flow must be <= the
	// best single-path max load, and no assignment may beat it.
	g := graph.NewUndirected(5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	g.AddEdge(1, 4)
	demand := []int{0, 1, 1, 1, 1}
	plan, err := BalancedPaths(g, 0, demand)
	if err != nil {
		t.Fatal(err)
	}
	// Enumerate routes: 3 can go via 1 or 2; 4 must go via 1.
	best := 1 << 30
	for _, via := range []int{1, 2} {
		routes := map[int][]int{
			1: {1, 0}, 2: {2, 0}, 4: {4, 1, 0},
			3: {3, via, 0},
		}
		load, err := Loads(5, 0, routes, demand)
		if err != nil {
			t.Fatal(err)
		}
		max := 0
		for _, l := range load {
			if l > max {
				max = l
			}
		}
		if max < best {
			best = max
		}
	}
	if plan.Delta != best {
		t.Fatalf("Delta = %d, brute force best = %d", plan.Delta, best)
	}
}

func TestBalancedPathsErrors(t *testing.T) {
	g := lineCluster(2)
	if _, err := BalancedPaths(g, 0, []int{0, 1}); err == nil {
		t.Error("short demand slice should error")
	}
	if _, err := BalancedPaths(g, 9, unitDemand(2)); err == nil {
		t.Error("bad head should error")
	}
	if _, err := BalancedPaths(g, 0, []int{1, 0, 0}); err == nil {
		t.Error("head demand should error")
	}
	if _, err := BalancedPaths(g, 0, []int{0, -1, 0}); err == nil {
		t.Error("negative demand should error")
	}
	// Disconnected sensor with demand.
	g2 := graph.NewUndirected(3)
	g2.AddEdge(0, 1)
	if _, err := BalancedPaths(g2, 0, []int{0, 0, 1}); err == nil {
		t.Error("unreachable demand should error")
	}
}

func TestZeroDemandPlan(t *testing.T) {
	g := lineCluster(3)
	plan, err := BalancedPaths(g, 0, make([]int, 4))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Delta != 0 || len(plan.Paths) != 0 {
		t.Fatalf("zero-demand plan: %+v", plan)
	}
	if len(plan.CycleRoutes(0)) != 0 {
		t.Fatal("zero-demand routes should be empty")
	}
}

func TestLineTakesOneSolve(t *testing.T) {
	// On a line every packet crosses sensor 1, so the layer-cut bound is
	// already the optimum: the first solve, at the bound, is feasible and
	// its flow is decomposed, so the search takes exactly one.
	n := 24
	plan, err := BalancedPaths(lineCluster(n), 0, unitDemand(n))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Delta != n {
		t.Fatalf("delta %d, want %d", plan.Delta, n)
	}
	if plan.Solves != 1 {
		t.Fatalf("%d solves on a line, want 1 (bound is exact)", plan.Solves)
	}
}

// randomCluster builds a random connected sensor graph with a few head
// links plus a random demand vector — the topology family the search
// equivalence properties are checked over.
func randomCluster(rng *rand.Rand) (*graph.Undirected, []int) {
	n := 3 + rng.Intn(14)
	g := graph.NewUndirected(n + 1)
	for v := 1; v <= n; v++ {
		if v == 1 || rng.Float64() < 0.3 {
			g.AddEdge(0, v)
		}
		if v > 1 {
			g.AddEdge(v, 1+rng.Intn(v-1))
		}
	}
	demand := make([]int, n+1)
	for v := 1; v <= n; v++ {
		demand[v] = rng.Intn(4)
	}
	return g, demand
}

// samePaths reports whether two decompositions are identical: same
// sensors, same path order, same nodes and weights.
func samePaths(a, b map[int][]WeightedPath) bool {
	if len(a) != len(b) {
		return false
	}
	for v, ps := range a {
		qs, ok := b[v]
		if !ok || len(ps) != len(qs) {
			return false
		}
		for i := range ps {
			if ps[i].Weight != qs[i].Weight || len(ps[i].Nodes) != len(qs[i].Nodes) {
				return false
			}
			for j := range ps[i].Nodes {
				if ps[i].Nodes[j] != qs[i].Nodes[j] {
					return false
				}
			}
		}
	}
	return true
}

// TestSearchMatchesColdSolve is the search equivalence property: on
// random cluster topologies, the delta search must agree with a cold
// solve — a fresh network built directly at the optimal delta and solved
// from zero flow — on both Delta and the decomposed paths, byte for byte.
func TestSearchMatchesColdSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(733))
	for trial := 0; trial < 120; trial++ {
		g, demand := randomCluster(rng)
		total := 0
		for _, d := range demand {
			total += d
		}
		if total == 0 {
			continue
		}
		plan, err := BalancedPaths(g, 0, demand)
		if err != nil {
			t.Fatal(err)
		}
		// Cold reference: a fresh network at the found delta, solved from
		// zero flow, decomposed the same way.
		nw := buildNetwork(new(Workspace), g, 0, demand, int64(plan.Delta))
		if got := nw.fn.MaxFlow(nw.src, nw.sink); got != int64(total) {
			t.Fatalf("trial %d: cold solve at delta %d pushed %d of %d", trial, plan.Delta, got, total)
		}
		cold, err := nw.decompose(new(Workspace), demand)
		if err != nil {
			t.Fatal(err)
		}
		if !samePaths(plan.Paths, cold) {
			t.Fatalf("trial %d: searched paths differ from cold solve:\n%v\nvs\n%v", trial, plan.Paths, cold)
		}
		// Delta minimality: the cold network at delta-1 must not satisfy
		// the demand (delta is the smallest feasible node capacity).
		if plan.Delta > 0 {
			low := buildNetwork(new(Workspace), g, 0, demand, int64(plan.Delta-1))
			if low.fn.MaxFlow(low.src, low.sink) == int64(total) {
				t.Fatalf("trial %d: delta %d is not minimal", trial, plan.Delta)
			}
		}
	}
}

// TestPlanCache pins the memoization contract: same (rev, demand) hits
// and returns the identical *Plan; any component changing misses.
func TestPlanCache(t *testing.T) {
	g := lineCluster(4)
	demand := unitDemand(4)
	plan, err := BalancedPaths(g, 0, demand)
	if err != nil {
		t.Fatal(err)
	}
	var pc PlanCache
	if got := pc.Lookup(7, demand); got != nil {
		t.Fatal("empty cache should miss")
	}
	pc.Store(7, demand, plan)
	if got := pc.Lookup(7, demand); got != plan {
		t.Fatal("cache should return the stored plan")
	}
	if got := pc.Lookup(8, demand); got != nil {
		t.Fatal("revision change should miss")
	}
	d2 := append([]int(nil), demand...)
	d2[2]++
	if got := pc.Lookup(7, d2); got != nil {
		t.Fatal("demand change should miss")
	}
	if pc.Hits != 1 || pc.Misses != 3 {
		t.Fatalf("hits/misses = %d/%d, want 1/3", pc.Hits, pc.Misses)
	}
}

func TestLoadsValidation(t *testing.T) {
	if _, err := Loads(3, 0, map[int][]int{1: {1, 2}}, []int{0, 1, 0}); err == nil {
		t.Error("route not ending at head should error")
	}
	if _, err := Loads(3, 0, map[int][]int{1: {2, 0}}, []int{0, 1, 0}); err == nil {
		t.Error("route not starting at sensor should error")
	}
	load, err := Loads(3, 0, map[int][]int{1: {1, 0}, 2: {2, 1, 0}}, []int{0, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if load[1] != 5 || load[2] != 3 {
		t.Fatalf("loads = %v", load)
	}
}

func TestDependentTable(t *testing.T) {
	routes := map[int][]int{
		2: {2, 1, 0},
		3: {3, 2, 1, 0},
		1: {1, 0},
	}
	table := DependentTable(routes)
	if table[1][3] != 0 || table[2][3] != 1 || table[3][3] != 2 {
		t.Fatalf("table for dependent 3 wrong: %v", table)
	}
	if table[1][2] != 0 || table[2][2] != 1 {
		t.Fatalf("table for dependent 2 wrong: %v", table)
	}
	if table[1][1] != 0 {
		t.Fatalf("table for dependent 1 wrong: %v", table)
	}
}

func TestCycleRoutesNegativeCycle(t *testing.T) {
	g := lineCluster(2)
	plan, err := BalancedPaths(g, 0, unitDemand(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.CycleRoutes(-3)) != 2 {
		t.Fatal("negative cycle index should still produce routes")
	}
}

// paperDelta is the paper's literal search: start at the largest single
// demand, cold-solve a fresh network, and add one until every source
// saturates.
func paperDelta(t *testing.T, g *graph.Undirected, demand []int, total int) int {
	t.Helper()
	maxDemand := 0
	for _, d := range demand {
		maxDemand = max(maxDemand, d)
	}
	for delta := maxDemand; delta <= total; delta++ {
		nw := buildNetwork(new(Workspace), g, 0, demand, int64(delta))
		if nw.fn.MaxFlow(nw.src, nw.sink) == int64(total) {
			return delta
		}
	}
	t.Fatalf("no feasible delta up to total demand %d", total)
	return 0
}

// coldPaths decomposes a cold solve at delta: the plan's paths at the
// optimum.
func coldPaths(t *testing.T, g *graph.Undirected, demand []int, delta int) map[int][]WeightedPath {
	t.Helper()
	nw := buildNetwork(new(Workspace), g, 0, demand, int64(delta))
	nw.fn.MaxFlow(nw.src, nw.sink)
	paths, err := nw.decompose(new(Workspace), demand)
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// deltaSearchCases returns random clusters plus topo.DefaultConfig
// deployments with head 0; sensors the head cannot reach get no demand.
func deltaSearchCases(t *testing.T) (gs []*graph.Undirected, demands [][]int) {
	rng := rand.New(rand.NewSource(977))
	for trial := 0; trial < 150; trial++ {
		g, demand := randomCluster(rng)
		gs, demands = append(gs, g), append(demands, demand)
	}
	for _, n := range []int{10, 30, 45, 60, 80} {
		for seed := int64(1); seed <= 3; seed++ {
			c, err := topo.Build(topo.DefaultConfig(n, seed))
			if err != nil {
				t.Fatal(err)
			}
			levels := c.G.BFSLevels(topo.Head)
			uniform, mixed := make([]int, n+1), make([]int, n+1)
			for v := 1; v <= n; v++ {
				if levels[v] > 0 {
					uniform[v] = 2
					mixed[v] = 1 + rng.Intn(3)
				}
			}
			gs = append(gs, c.G, c.G)
			demands = append(demands, uniform, mixed)
		}
	}
	return gs, demands
}

// TestBoundedAscentMatchesPaperAscent pins the bounded search against
// the paper's +1 ascent: the layer bound and every min-cut jump target
// stay at or below the optimum, the search finds the paper's delta, and
// its paths equal a cold solve at it. It also pins the counters: Solves
// is the length of the cold chain from the bound (solve, then jump until
// feasible), never more than the paper's delta* - maxDemand + 1, and
// AugmentingPaths sums that chain's augmenting paths.
func TestBoundedAscentMatchesPaperAscent(t *testing.T) {
	gs, demands := deltaSearchCases(t)
	atBound, jumped := 0, 0
	for i, g := range gs {
		demand := demands[i]
		total, maxDemand := 0, 0
		for _, d := range demand {
			total += d
			maxDemand = max(maxDemand, d)
		}
		if total == 0 {
			continue
		}
		want := paperDelta(t, g, demand, total)
		lb := layerBound(g.BFSLevels(0), demand, maxDemand)
		if lb > want {
			t.Fatalf("case %d: layer bound %d above optimum %d", i, lb, want)
		}
		// solveAt cold-solves a fresh network at delta and returns the
		// feasible flag, the augmenting paths pushed and, when
		// infeasible, the min-cut jump target, which must never pass
		// the optimum.
		solveAt := func(delta int) (bool, int, int) {
			nw := buildNetwork(new(Workspace), g, 0, demand, int64(delta))
			flow := nw.fn.MaxFlow(nw.src, nw.sink)
			if flow == int64(total) {
				return true, nw.fn.AugmentCount(), 0
			}
			next, err := nw.cutTarget(delta, flow, total)
			if err != nil {
				t.Fatalf("case %d delta %d: %v", i, delta, err)
			}
			if next <= delta || next > want {
				t.Fatalf("case %d: jump from %d to %d, optimum %d", i, delta, next, want)
			}
			return false, nw.fn.AugmentCount(), next
		}
		// Every delta below the optimum is infeasible and jumps at most
		// to it.
		for delta := lb; delta < want; delta++ {
			if ok, _, _ := solveAt(delta); ok {
				t.Fatalf("case %d: delta %d below optimum %d is feasible", i, delta, want)
			}
		}
		// The cold chain the search should run from the bound.
		chain, augments := 0, 0
		for delta := lb; ; {
			ok, paths, next := solveAt(delta)
			chain++
			augments += paths
			if ok {
				break
			}
			delta = next
		}
		plan, err := BalancedPaths(g, 0, demand)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Delta != want {
			t.Fatalf("case %d: delta %d, paper ascent %d", i, plan.Delta, want)
		}
		if !samePaths(plan.Paths, coldPaths(t, g, demand, want)) {
			t.Fatalf("case %d: paths differ from a cold solve at %d (%d solves)",
				i, want, plan.Solves)
		}
		if plan.Solves != chain || plan.AugmentingPaths != augments {
			t.Fatalf("case %d: %d solves and %d augmenting paths, cold chain from the bound takes %d and %d",
				i, plan.Solves, plan.AugmentingPaths, chain, augments)
		}
		if paper := want - maxDemand + 1; plan.Solves > paper {
			t.Fatalf("case %d: %d solves, the paper's +1 ascent takes %d", i, plan.Solves, paper)
		}
		if plan.Solves == 1 {
			atBound++
		} else {
			jumped++
		}
	}
	if atBound == 0 || jumped == 0 {
		t.Fatalf("cases cover %d plans feasible at the bound and %d that jump; want both", atBound, jumped)
	}
}

// Loads returns the per-node transmission load induced by routing each
// sensor's packets along the given per-cycle routes: every node on a
// packet's route except the head transmits it once. routes[v] must start
// at v and end at the head for every sensor with positive demand.
func Loads(n int, head int, routes map[int][]int, demand []int) ([]int, error) {
	load := make([]int, n)
	for v, d := range demand {
		if d == 0 || v == head {
			continue
		}
		r := routes[v]
		if len(r) < 2 || r[0] != v || r[len(r)-1] != head {
			return nil, fmt.Errorf("routing: bad route for sensor %d: %v", v, r)
		}
		for _, x := range r[:len(r)-1] {
			if x < 0 || x >= n || x == head {
				return nil, fmt.Errorf("routing: route of %d passes through invalid node %d", v, x)
			}
			load[x] += d
		}
	}
	return load, nil
}

// MaxLoad returns the largest per-sensor average load implied by the
// plan's weighted paths (fractional over the rotation period); it equals
// Delta when the flow solution is tight.
func (p *Plan) MaxLoad(n int) int {
	load := make([]int, n)
	for _, ps := range p.Paths {
		for _, wp := range ps {
			for _, x := range wp.Nodes[:len(wp.Nodes)-1] {
				load[x] += wp.Weight
			}
		}
	}
	max := 0
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	return max
}

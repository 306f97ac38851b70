package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
)

// isHamiltonianPath reports whether path visits every vertex of g exactly
// once with consecutive vertices adjacent.
func isHamiltonianPath(g *graph.Undirected, path []int) bool {
	seen := make([]bool, g.N())
	for i, v := range path {
		if v < 0 || v >= g.N() || seen[v] || (i > 0 && !g.HasEdge(path[i-1], v)) {
			return false
		}
		seen[v] = true
	}
	return len(path) == g.N()
}

func TestTSRFPathGraphHasSchedule(t *testing.T) {
	// A path graph trivially has a Hamiltonian path, so the TSRF must
	// schedule in n+1 slots.
	for n := 2; n <= 6; n++ {
		g := graph.NewUndirected(n)
		for v := 1; v < n; v++ {
			g.AddEdge(v-1, v)
		}
		tsrf := TSRFFromGraph(g)
		path, ok, err := tsrf.SolveTSRFP()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("n=%d: no %d-slot schedule despite Hamiltonian path", n, n+1)
		}
		if !isHamiltonianPath(g, path) {
			t.Fatalf("n=%d: recovered path %v is not Hamiltonian", n, path)
		}
	}
}

func TestTSRFStarGraphHasNoFastSchedule(t *testing.T) {
	// K_{1,3} has no Hamiltonian path, so no 5-slot schedule exists.
	g := graph.NewUndirected(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	tsrf := TSRFFromGraph(g)
	_, ok, err := tsrf.SolveTSRFP()
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("star graph yielded an n+1 schedule; reduction broken")
	}
}

func TestTSRFReductionBothDirectionsRandom(t *testing.T) {
	// Lemma 1: the graph has a Hamiltonian path iff the TSRF schedules in
	// n+1 slots. Verify equivalence on random graphs.
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(5)
		g := graph.NewUndirected(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.45 {
					g.AddEdge(u, v)
				}
			}
		}
		hasPath := graph.HamiltonianPath(g) != nil
		tsrf := TSRFFromGraph(g)
		path, ok, err := tsrf.SolveTSRFP()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if ok != hasPath {
			t.Fatalf("trial %d (n=%d): schedule-in-%d %v but Hamiltonian %v",
				trial, n, n+1, ok, hasPath)
		}
		if ok && !isHamiltonianPath(g, path) {
			t.Fatalf("trial %d: recovered non-Hamiltonian path %v", trial, path)
		}
	}
}

func TestHamPathToScheduleRoundTrip(t *testing.T) {
	// The paper's Fig. 4: a 5-vertex graph whose Hamiltonian path yields
	// a 6-slot schedule for the 5-branch TSRF.
	g := graph.NewUndirected(5)
	edges := [][2]int{{0, 2}, {2, 4}, {4, 1}, {1, 3}, {0, 1}, {2, 3}}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	path := graph.HamiltonianPath(g)
	if path == nil {
		t.Fatal("test graph should have a Hamiltonian path")
	}
	tsrf := TSRFFromGraph(g)
	sched, err := tsrf.HamPathToSchedule(path)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Makespan() != 6 {
		t.Fatalf("makespan = %d want 6 (Fig. 4(c))", sched.Makespan())
	}
	if err := Validate(sched, tsrf.Reqs, tsrf.Oracle); err != nil {
		t.Fatal(err)
	}
	back, err := tsrf.ScheduleToHamPath(sched)
	if err != nil {
		t.Fatal(err)
	}
	for i := range path {
		if back[i] != path[i] {
			t.Fatalf("round trip mismatch: %v vs %v", back, path)
		}
	}
}

func TestHamPathToScheduleValidation(t *testing.T) {
	g := graph.NewUndirected(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	tsrf := TSRFFromGraph(g)
	if _, err := tsrf.HamPathToSchedule([]int{0, 1}); err == nil {
		t.Error("short path should error")
	}
	if _, err := tsrf.HamPathToSchedule([]int{0, 1, 9}); err == nil {
		t.Error("out-of-range vertex should error")
	}
}

func TestScheduleToHamPathRejects(t *testing.T) {
	g := graph.NewUndirected(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	tsrf := TSRFFromGraph(g)
	sched, err := tsrf.HamPathToSchedule([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	long := &Schedule{Slots: append(sched.Slots, nil), Start: sched.Start, Completed: sched.Completed}
	if _, err := tsrf.ScheduleToHamPath(long); err == nil {
		t.Error("wrong makespan should error")
	}
	dup := &Schedule{Slots: sched.Slots, Start: map[int]int{1: 0, 2: 0, 3: 1}, Completed: sched.Completed}
	if _, err := tsrf.ScheduleToHamPath(dup); err == nil {
		t.Error("duplicate start slot should error")
	}
}

func TestGreedyOnTSRFIsValidButMaybeSuboptimal(t *testing.T) {
	// The greedy must always produce a valid schedule on TSRF instances,
	// even when it misses the n+1 optimum — that is the point of the
	// NP-hardness result.
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		g := graph.NewUndirected(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					g.AddEdge(u, v)
				}
			}
		}
		tsrf := TSRFFromGraph(g)
		sched, _, err := Greedy(tsrf.Reqs, Options{Oracle: tsrf.Oracle})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := Validate(sched, tsrf.Reqs, tsrf.Oracle); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sched.Makespan() < tsrf.OptimalMakespan() {
			t.Fatalf("trial %d: makespan %d beats the n+1 lower bound", trial, sched.Makespan())
		}
	}
}

func TestX1MHPConstruction(t *testing.T) {
	g := graph.NewUndirected(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	tsrf := TSRFFromGraph(g)
	x := X1MHPFromTSRF(tsrf)
	// Theorem 3's defining property: every sensor has exactly one packet.
	if err := x.PacketsPerSensor(); err != nil {
		t.Fatal(err)
	}
	// 6 requests per branch (2 original + 4 auxiliary).
	if len(x.Reqs) != 6*3 {
		t.Fatalf("requests = %d want 18", len(x.Reqs))
	}
	// The greedy must schedule it.
	sched, _, err := Greedy(x.Reqs, Options{Oracle: x.Oracle})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(sched, x.Reqs, x.Oracle); err != nil {
		t.Fatal(err)
	}
}

func TestX1MHPAuxPairing(t *testing.T) {
	// The construction's single cross-branch compatibility must hold:
	// u'' -> u' of a branch pairs with that branch's s' -> s, and with
	// nothing else.
	g := graph.NewUndirected(2)
	g.AddEdge(0, 1)
	tsrf := TSRFFromGraph(g)
	x := X1MHPFromTSRF(tsrf)
	base := 2 * tsrf.N
	auxRelay := func(branch int) radio.Transmission {
		// u''(level 2) -> u'(level 1) of the branch.
		return radio.Transmission{From: base + 4*(branch-1) + 3, To: base + 4*(branch-1) + 2}
	}
	if !x.Oracle.Compatible([]radio.Transmission{auxRelay(1), tsrf.startTx(1)}) {
		t.Error("aux relay of branch 1 should pair with its own s'->s")
	}
	if x.Oracle.Compatible([]radio.Transmission{auxRelay(1), tsrf.startTx(2)}) {
		t.Error("aux relay must not pair with another branch's start")
	}
	if x.Oracle.Compatible([]radio.Transmission{auxRelay(1), tsrf.relayTx(2)}) {
		t.Error("aux relay must not pair with a first-level relay")
	}
	// The inherited TSRF compatibility survives the construction.
	if !x.Oracle.Compatible([]radio.Transmission{tsrf.startTx(1), tsrf.relayTx(2)}) {
		t.Error("edge {v0,v1} compatibility should be inherited")
	}
}

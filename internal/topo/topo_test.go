package topo

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
)

func TestBuildConnectedCluster(t *testing.T) {
	for _, n := range []int{1, 10, 30, 60} {
		c, err := Build(DefaultConfig(n, 42))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if c.Sensors() != n {
			t.Fatalf("n=%d: Sensors() = %d", n, c.Sensors())
		}
		for v := 1; v <= n; v++ {
			if c.Level[v] < 1 {
				t.Fatalf("n=%d: sensor %d level %d", n, v, c.Level[v])
			}
		}
		if c.Level[Head] != 0 {
			t.Fatalf("head level = %d", c.Level[Head])
		}
	}
}

// TestConnectivityRevBumps pins the cache-invalidation contract: the
// revision changes exactly when a rebuild changes the connectivity
// graph, so a plan keyed on an old revision can never be served after
// real churn — and a no-op refresh never evicts a valid plan.
func TestConnectivityRevBumps(t *testing.T) {
	c, err := Build(DefaultConfig(12, 7))
	if err != nil {
		t.Fatal(err)
	}
	r0 := c.ConnectivityRev()
	if r0 == 0 {
		t.Fatal("initial build should set a non-zero revision")
	}
	if c.ConnectivityRev() != r0 {
		t.Fatal("revision must be stable between rebuilds")
	}
	c.MarkFailedBatch([]int{3})
	r1 := c.ConnectivityRev()
	if r1 == r0 {
		t.Fatal("MarkFailedBatch must bump the revision")
	}
	// The model did not change, so this refresh flips no link: the graph
	// is unchanged and the revision must hold — quiet clusters keep
	// hitting their plan caches.
	c.RefreshConnectivity()
	if c.ConnectivityRev() != r1 {
		t.Fatal("no-op RefreshConnectivity must keep the revision")
	}
}

// TestConnectivityRevTracksShadowChurn drives RefreshConnectivity with a
// propagation mutation violent enough to flip links and checks the
// revision moves with the graph.
func TestConnectivityRevTracksShadowChurn(t *testing.T) {
	cfg := DefaultConfig(25, 11)
	ld := radio.NewLogDistance(3.5, 1)
	cfg.Prop = ld
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r0 := c.ConnectivityRev()
	a0 := adjacency(c.G)
	for rev := int64(1); rev <= 8; rev++ {
		ld.ShadowDB = radio.HashShadow(rev, 6)
		c.RefreshConnectivity()
		changed := !reflect.DeepEqual(adjacency(c.G), a0)
		bumped := c.ConnectivityRev() != r0
		if changed != bumped {
			t.Fatalf("shadow rev %d: graph changed=%v but revision bumped=%v", rev, changed, bumped)
		}
		r0 = c.ConnectivityRev()
		a0 = adjacency(c.G)
	}
}

// adjacency copies g's neighbour lists, in order.
func adjacency(g *graph.Undirected) [][]int {
	adj := make([][]int, g.N())
	for u := range adj {
		adj[u] = append([]int(nil), g.Neighbors(u)...)
	}
	return adj
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Config{Sensors: -1, Side: 1, SensorRange: 1, HeadRange: 1}); err == nil {
		t.Error("negative sensors should error")
	}
	if _, err := Build(Config{Sensors: 1, Side: 0, SensorRange: 1, HeadRange: 1}); err == nil {
		t.Error("zero side should error")
	}
}

func TestBuildImpossibleDeploymentErrors(t *testing.T) {
	// A 1 m sensor range in a 1000 m square cannot connect 5 sensors.
	cfg := Config{Sensors: 5, Side: 1000, SensorRange: 1, HeadRange: 2000, Seed: 1}
	if _, err := Build(cfg); err == nil {
		t.Fatal("expected no-connected-deployment error")
	}
}

func TestHeterogeneousRanges(t *testing.T) {
	c, err := Build(DefaultConfig(40, 7))
	if err != nil {
		t.Fatal(err)
	}
	// Head must reach every sensor (its broadcast is the polling clock).
	for v := 1; v <= 40; v++ {
		if !c.Med.InRange(Head, v) {
			t.Fatalf("head cannot reach sensor %d", v)
		}
	}
	// In a 100 m square with 30 m sensor range there must be sensors that
	// cannot reach the head directly — the multi-hop case the paper is
	// about.
	if c.MaxLevel() < 2 {
		t.Fatalf("expected multi-hop cluster, max level = %d", c.MaxLevel())
	}
}

func TestLevelsMatchBFS(t *testing.T) {
	c, err := Build(DefaultConfig(25, 11))
	if err != nil {
		t.Fatal(err)
	}
	want := c.G.BFSLevels(Head)
	for v, l := range c.Level {
		if l != want[v] {
			t.Fatalf("level[%d] = %d want %d", v, l, want[v])
		}
	}
}

func TestDiscoverConnectivityMatchesGroundTruth(t *testing.T) {
	c, err := Build(DefaultConfig(20, 5))
	if err != nil {
		t.Fatal(err)
	}
	g, messages := c.DiscoverConnectivity()
	if g.N() != c.G.N() {
		t.Fatalf("discovered graph size %d", g.N())
	}
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if g.HasEdge(u, v) != c.G.HasEdge(u, v) {
				t.Fatalf("edge {%d,%d}: discovered %v truth %v", u, v, g.HasEdge(u, v), c.G.HasEdge(u, v))
			}
		}
	}
	// O(n) message cost: n broadcasts + 2(n-1) poll/report.
	n := c.Med.N()
	if want := n + 2*(n-1); messages != want {
		t.Fatalf("messages = %d want %d", messages, want)
	}
}

func TestBuildDeterministicPerSeed(t *testing.T) {
	a, err := Build(DefaultConfig(15, 99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(DefaultConfig(15, 99))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < a.Med.N(); v++ {
		if a.Med.Pos(v) != b.Med.Pos(v) {
			t.Fatalf("position %d differs across identical builds", v)
		}
	}
}

func TestBuildWithCustomPropagation(t *testing.T) {
	cfg := DefaultConfig(10, 1)
	cfg.Prop = radio.NewFreeSpace()
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sensors() != 10 {
		t.Fatalf("Sensors = %d", c.Sensors())
	}
}

func TestBuildField(t *testing.T) {
	f := BuildField(13, 500, 9, 200)
	if len(f.Heads) != 9 || len(f.Sensors) != 200 || len(f.Assign) != 200 {
		t.Fatalf("field sizes: %d heads %d sensors %d assigns", len(f.Heads), len(f.Sensors), len(f.Assign))
	}
	// Voronoi: each sensor is assigned to its nearest head.
	for i, p := range f.Sensors {
		d := p.Dist2(f.Heads[f.Assign[i]])
		for h := range f.Heads {
			if p.Dist2(f.Heads[h]) < d-1e-12 {
				t.Fatalf("sensor %d not assigned to nearest head", i)
			}
		}
	}
}

func TestClusterGraphAndColoring(t *testing.T) {
	f := BuildField(17, 400, 8, 300)
	g := f.ClusterGraph(60)
	if g.N() != 8 {
		t.Fatalf("cluster graph size %d", g.N())
	}
	colors, used := f.ChannelAssignment(60)
	if len(colors) != g.N() {
		t.Fatalf("%d colors for %d clusters", len(colors), g.N())
	}
	for _, e := range g.Edges() {
		if colors[e[0]] == colors[e[1]] {
			t.Fatalf("channel assignment is not a proper coloring: edge %v colors %v", e, colors)
		}
	}
	if used > 6 {
		t.Fatalf("used %d channels, paper guarantees <= 6 for planar-like adjacency", used)
	}
	// Larger interference range can only add edges.
	g2 := f.ClusterGraph(120)
	for _, e := range g.Edges() {
		if !g2.HasEdge(e[0], e[1]) {
			t.Fatal("growing interference range dropped an edge")
		}
	}
}

// TestClusterGraphMatchesAllPairs pins the grid-bucketed ClusterGraph to
// the all-pairs reference it replaced — not just the same edge set but
// the same edge sequence, since edge order feeds the coloring heuristic
// and through it every channel assignment downstream.
func TestClusterGraphMatchesAllPairs(t *testing.T) {
	allPairs := func(f *Field, rng float64) *graph.Undirected {
		g := graph.NewUndirected(len(f.Heads))
		for i := 0; i < len(f.Sensors); i++ {
			for j := i + 1; j < len(f.Sensors); j++ {
				ci, cj := f.Assign[i], f.Assign[j]
				if ci == cj {
					continue
				}
				if f.Sensors[i].Dist(f.Sensors[j]) <= rng {
					g.AddEdge(ci, cj)
				}
			}
		}
		return g
	}
	for _, tc := range []struct {
		seed         int64
		side         float64
		heads, nodes int
		interference float64
	}{
		{17, 400, 8, 300, 60},
		{17, 400, 8, 300, 120},
		{99, 900, 13, 700, 45},
		{5, 200, 3, 40, 500}, // range dwarfs the field: one cell holds everyone
		{5, 200, 3, 40, 0.5}, // range dwarfs nothing: mostly empty cells
	} {
		f := BuildField(tc.seed, tc.side, tc.heads, tc.nodes)
		want := allPairs(f, tc.interference)
		got := f.ClusterGraph(tc.interference)
		we, ge := want.Edges(), got.Edges()
		if len(we) != len(ge) {
			t.Fatalf("case %+v: %d edges, want %d", tc, len(ge), len(we))
		}
		for k := range we {
			if we[k] != ge[k] {
				t.Fatalf("case %+v: edge %d = %v, want %v", tc, k, ge[k], we[k])
			}
		}
	}
}

func TestMaxLevelSingleSensor(t *testing.T) {
	c, err := Build(Config{Sensors: 1, Side: 10, SensorRange: 30, HeadRange: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxLevel() != 1 {
		t.Fatalf("single close sensor should be level 1, got %d", c.MaxLevel())
	}
}

func TestMarkFailedAndReachable(t *testing.T) {
	c, err := Build(DefaultConfig(15, 139))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Reachable()); got != 15 {
		t.Fatalf("reachable = %d", got)
	}
	c.MarkFailedBatch([]int{3})
	if c.Level[3] != -1 {
		t.Fatalf("failed sensor level = %d", c.Level[3])
	}
	if len(c.Reachable()) >= 15 {
		t.Fatal("reachable should shrink")
	}
	// The failed sensor has no edges anymore.
	if c.G.Degree(3) != 0 {
		t.Fatalf("failed sensor still has %d edges", c.G.Degree(3))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("head failure should panic")
		}
	}()
	c.MarkFailedBatch([]int{Head})
}

func TestFieldBuildClusterDirect(t *testing.T) {
	f := BuildField(19, 300, 3, 50)
	cfg := DefaultConfig(0, 0)
	cfg.SensorRange = 45
	seen := 0
	for k := range f.Heads {
		c, err := f.BuildCluster(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		seen += c.Sensors()
		if c.Med.Pos(Head) != f.Heads[k] {
			t.Fatalf("cluster %d head misplaced", k)
		}
	}
	if seen != 50 {
		t.Fatalf("clusters hold %d sensors", seen)
	}
	if _, err := f.BuildCluster(-1, cfg); err == nil {
		t.Fatal("negative index should error")
	}
}

// Reachable returns the sensors that currently have a relaying path to
// the head, ascending.
func (c *Cluster) Reachable() []int { return c.ReachableInto(nil) }

package repro

// One benchmark per figure of the paper's evaluation (Section VI) plus
// the ablation benches DESIGN.md calls out. Each benchmark prints the
// regenerated table once (on the first iteration) and then times the
// sweep, so `go test -bench=.` both reproduces and profiles every
// experiment. The quick sweeps keep iterations tractable; run
// cmd/experiments for the full-resolution tables.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/topo"
)

var printOnce sync.Map

func printFirst(b *testing.B, key, table string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		b.Logf("\n%s", table)
	}
}

// BenchmarkFig7aActiveTime regenerates Fig. 7(a): percentage of active
// time as a function of cluster size and data generation rate.
func BenchmarkFig7aActiveTime(b *testing.B) {
	cfg := exp.QuickFig7a()
	for i := 0; i < b.N; i++ {
		points, err := exp.Fig7a(exp.Options{}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "7a", exp.RenderFig7a(points))
	}
}

// BenchmarkFig7bThroughput regenerates Fig. 7(b): polling vs. S-MAC+AODV
// throughput across offered loads and duty cycles.
func BenchmarkFig7bThroughput(b *testing.B) {
	cfg := exp.QuickFig7b()
	for i := 0; i < b.N; i++ {
		points, err := exp.Fig7b(exp.Options{}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "7b", exp.RenderFig7b(points))
	}
}

// BenchmarkFig7cLifetime regenerates Fig. 7(c): the sector/no-sector
// lifetime ratio across cluster sizes.
func BenchmarkFig7cLifetime(b *testing.B) {
	cfg := exp.QuickFig7c()
	for i := 0; i < b.N; i++ {
		points, err := exp.Fig7c(exp.Options{}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "7c", exp.RenderFig7c(points))
	}
}

// benchCluster caches one deployment for the scheduler-level benches.
func benchCluster(b *testing.B, n int) *topo.Cluster {
	b.Helper()
	c, err := topo.Build(topo.DefaultConfig(n, 1))
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func benchGreedyM(b *testing.B, m int) {
	c := benchCluster(b, 30)
	p := cluster.DefaultParams()
	p.M = m
	p.RateBps = 40
	p.LossProb = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := cluster.NewRunner(c, p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.RunCycle(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyM* ablate the compatibility degree M (paper Section
// III-D: the head knows compatibility of groups of at most M).
func BenchmarkGreedyM1(b *testing.B) { benchGreedyM(b, 1) }
func BenchmarkGreedyM2(b *testing.B) { benchGreedyM(b, 2) }
func BenchmarkGreedyM3(b *testing.B) { benchGreedyM(b, 3) }
func BenchmarkGreedyM4(b *testing.B) { benchGreedyM(b, 4) }

// BenchmarkRoutingDelta times the min-max routing's bounded delta ascent
// (paper Section III-A increments delta linearly).
func BenchmarkRoutingDelta(b *testing.B) {
	c := benchCluster(b, 40)
	demand := make([]int, c.Sensors()+1)
	for v := 1; v < len(demand); v++ {
		demand[v] = 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.BalancedPaths(c.G, topo.Head, demand); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelayVariant ablates packet delay (Theorem 2: it cannot help).
func BenchmarkDelayVariant(b *testing.B) {
	c := benchCluster(b, 25)
	p := cluster.DefaultParams()
	p.AllowDelay = true
	p.RateBps = 40
	p.LossProb = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := cluster.NewRunner(c, p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.RunCycle(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterCluster ablates the Section V-G schemes: token rotation
// vs. channel coloring over a 9-cluster field.
func BenchmarkInterCluster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.AblationInterCluster([]int{9}, 12, 500*time.Millisecond, 1)
		if err != nil {
			b.Fatal(err)
		}
		printFirst(b, "intercluster", exp.RenderInterCluster(rows))
	}
}

// BenchmarkAckCollection isolates the Section V-F acknowledgment phase:
// set-cover path selection plus ack polling on a 40-sensor cluster.
func BenchmarkAckCollection(b *testing.B) {
	c := benchCluster(b, 40)
	p := cluster.DefaultParams()
	p.RateBps = 1 // keep the data phase tiny so ack work dominates
	p.LossProb = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := cluster.NewRunner(c, p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.RunCycle(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTSRFReduction times the Lemma 1 machinery end to end: random
// graph -> TSRF instance -> exact schedule -> Hamiltonian path.
func BenchmarkTSRFReduction(b *testing.B) {
	g := graph.NewUndirected(7)
	for v := 1; v < 7; v++ {
		g.AddEdge(v-1, v)
	}
	g.AddEdge(0, 3)
	g.AddEdge(2, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tsrf := core.TSRFFromGraph(g)
		if _, ok, err := tsrf.SolveTSRFP(); err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkGreedyScheduler measures the raw on-line scheduler on a big
// request batch (200 packets over a 50-sensor cluster).
func BenchmarkGreedyScheduler(b *testing.B) {
	c := benchCluster(b, 50)
	demand := make([]int, 51)
	for v := 1; v <= 50; v++ {
		demand[v] = 4
	}
	plan, err := routing.BalancedPaths(c.G, topo.Head, demand)
	if err != nil {
		b.Fatal(err)
	}
	routes := plan.CycleRoutes(0)
	var reqs []core.Request
	id := 0
	for v := 1; v <= 50; v++ {
		for k := 0; k < 4; k++ {
			id++
			reqs = append(reqs, core.Request{ID: id, Route: routes[v]})
		}
	}
	oracle := radio.SINROracle{M: c.Med}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Greedy(reqs, core.Options{Oracle: oracle, MaxConcurrent: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLongitudinal measures the battery-depletion runtime: cycles
// with real batteries, deaths and re-planning.
func BenchmarkLongitudinal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := topo.Build(topo.DefaultConfig(20, 149))
		if err != nil {
			b.Fatal(err)
		}
		p := cluster.DefaultParams()
		p.RateBps = 60
		p.LossProb = 0
		p.Cycle = 2 * time.Second
		if _, err := cluster.RunLongitudinal(c, p, 0.08, 200, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAckCoverExact measures the Section V-F exact/greedy cover
// comparison on a 16-sensor cluster.
func BenchmarkAckCoverExact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.AblationAckCover(exp.Options{}, []int{16}, []int64{1}); err != nil {
			b.Fatal(err)
		}
	}
}

package topo

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
)

// allPairsGraph rebuilds the connectivity graph the way the pre-sparse
// code did — a full O(N^2) Reliable scan — as the oracle for the
// neighbor-row rebuild.
func allPairsGraph(c *Cluster) *graph.Undirected {
	n := c.Med.N()
	g := graph.NewUndirected(n)
	for u := 1; u < n; u++ {
		if c.Reliable(u, Head) {
			g.AddEdge(u, Head)
		}
		for v := u + 1; v < n; v++ {
			if c.Reliable(u, v) && c.Reliable(v, u) {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}

// TestRebuildGraphMatchesAllPairs pins the sparse connectivity rebuild
// against the all-pairs oracle through the full churn life cycle: fresh
// build, failures (single and batched), and shadowing revisions.
func TestRebuildGraphMatchesAllPairs(t *testing.T) {
	for _, seed := range []int64{3, 4} {
		ld := radio.NewLogDistance(3.5, 1)
		cfg := DefaultConfig(45, seed)
		cfg.Prop = ld
		c, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		check := func(stage string) {
			t.Helper()
			want := allPairsGraph(c)
			if !c.G.Equal(want) {
				t.Fatalf("seed %d, %s: sparse rebuild differs from all-pairs oracle", seed, stage)
			}
			wantLevel := want.BFSLevels(Head)
			for v, l := range c.Level {
				if l != wantLevel[v] {
					t.Fatalf("seed %d, %s: Level[%d] = %d, oracle %d", seed, stage, v, l, wantLevel[v])
				}
			}
		}
		check("fresh")
		c.MarkFailedBatch([]int{5})
		check("after a single kill")
		c.MarkFailedBatch([]int{7, 12, 19})
		check("after MarkFailedBatch")
		for rev := int64(1); rev <= 3; rev++ {
			ld.ShadowDB = radio.HashShadow(seed*10+rev, 5)
			c.RefreshConnectivity()
			check("after shadow refresh")
		}
	}
}

// TestMarkFailedBatchMatchesSequential pins the batch-kill contract: one
// batched rebuild lands on exactly the state of killing one at a time.
func TestMarkFailedBatchMatchesSequential(t *testing.T) {
	cfg := DefaultConfig(40, 9)
	seqC, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batchC, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victims := []int{3, 11, 25, 31}
	for _, v := range victims {
		seqC.MarkFailedBatch([]int{v})
	}
	batchC.MarkFailedBatch(victims)
	if !batchC.G.Equal(seqC.G) {
		t.Fatal("batched kill produced a different graph than sequential kills")
	}
	for v := range seqC.Level {
		if batchC.Level[v] != seqC.Level[v] {
			t.Fatalf("Level[%d]: batch %d vs sequential %d", v, batchC.Level[v], seqC.Level[v])
		}
	}
}

// TestReachableHelpers pins the scratch-friendly variants against the
// allocating original.
func TestReachableHelpers(t *testing.T) {
	c, err := Build(DefaultConfig(30, 2))
	if err != nil {
		t.Fatal(err)
	}
	c.MarkFailedBatch([]int{4})
	want := c.Reachable()
	if got := c.ReachableCount(); got != len(want) {
		t.Fatalf("ReachableCount = %d, len(Reachable) = %d", got, len(want))
	}
	buf := make([]int, 0, 64)
	got := c.ReachableInto(buf)
	if len(got) != len(want) {
		t.Fatalf("ReachableInto returned %d sensors, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ReachableInto[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if cap(got) != cap(buf) {
		t.Fatal("ReachableInto reallocated despite sufficient capacity")
	}
}

// TestLargeClusterIncrementalMatchesFresh is the 10k-sensor contract: a
// cluster mutated incrementally (shadow revisions, batched failures)
// lands on exactly the connectivity a from-scratch build with the same
// final environment produces, and the sparse medium keeps the pair count
// far below N^2. The test doubles as the large-field memory smoke: with
// the dense matrix this fixture alone would allocate ~800 MB.
func TestLargeClusterIncrementalMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("large-field test")
	}
	// Sizing: at path-loss exponent 3.5 the materialization cutoff is
	// ~14x the decode range (22 dB shadow+floor headroom plus the
	// reliability margin), so a 30 m sensor range yields ~420 m discs; in
	// a 4000 m square that materializes ~3-4% of the pair space.
	const sensors = 10_000
	f := BuildField(77, 4000, 1, sensors)
	mkCfg := func() (Config, *radio.LogDistance) {
		ld := radio.NewLogDistance(3.5, 1)
		return Config{
			Sensors:     sensors,
			Side:        4000,
			SensorRange: 30,
			HeadRange:   6000,
			Prop:        ld,
			MaxLinkLoss: 0.05,
			Seed:        77,
		}, ld
	}

	cfgA, ldA := mkCfg()
	inc, err := f.BuildCluster(0, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	st := inc.Med.Stats()
	n := inc.Med.N()
	if limit := n * n / 20; st.Pairs >= limit {
		t.Fatalf("materialized %d pairs; sparse bound is %d (N^2 = %d)", st.Pairs, limit, n*n)
	}
	// Life cycle: shadow rev 1, a batch of failures, shadow rev 2 — all
	// incremental.
	ldA.ShadowDB = radio.HashShadow(501, 4)
	inc.RefreshConnectivity()
	victims := []int{10, 500, 1234, 4321, 9000}
	inc.MarkFailedBatch(victims)
	ldA.ShadowDB = radio.HashShadow(502, 4)
	inc.RefreshConnectivity()

	// From scratch: build, jump straight to the final shadow table (one
	// refresh instead of two revisions), then apply the same deaths. The
	// shadow is installed after the build, matching the field runtime's
	// canonical order — transmit powers are sized against the unshadowed
	// model.
	cfgB, ldB := mkCfg()
	fresh, err := f.BuildCluster(0, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	ldB.ShadowDB = radio.HashShadow(502, 4)
	fresh.RefreshConnectivity()
	fresh.MarkFailedBatch(victims)

	if !inc.G.Equal(fresh.G) {
		t.Fatal("incrementally refreshed 10k cluster differs from fresh build")
	}
	for v := range fresh.Level {
		if inc.Level[v] != fresh.Level[v] {
			t.Fatalf("Level[%d]: incremental %d vs fresh %d", v, inc.Level[v], fresh.Level[v])
		}
	}
}

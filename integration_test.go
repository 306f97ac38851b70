package repro

// End-to-end integration test: exercises the whole stack the way a real
// deployment would run it — connectivity discovery on a lossy channel,
// load-balanced routing, sector partitioning, duty cycles with packet
// loss, a relay failure, re-planning, and the S-MAC baseline side by
// side — asserting the cross-package invariants hold at every step.

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/field"
	"repro/internal/mac/smac"
	"repro/internal/routing"
	"repro/internal/sector"
	"repro/internal/topo"
)

func TestFullLifecycle(t *testing.T) {
	// --- Deployment and initialization (Sections II, V-A, V-B) ---
	c, err := topo.Build(topo.DefaultConfig(35, 991))
	if err != nil {
		t.Fatal(err)
	}
	discovered, messages := c.DiscoverConnectivityLossy(7, 991)
	if messages <= 0 {
		t.Fatal("discovery sent no messages")
	}
	// Every reliable edge must be discovered.
	for _, e := range c.G.Edges() {
		if !discovered.HasEdge(e[0], e[1]) {
			t.Fatalf("discovery missed reliable edge %v", e)
		}
	}

	// --- Routing (Section III-A) ---
	demand := make([]int, 36)
	for v := 1; v <= 35; v++ {
		demand[v] = 2
	}
	plan, err := routing.BalancedPaths(c.G, topo.Head, demand)
	if err != nil {
		t.Fatal(err)
	}
	routes := plan.CycleRoutes(0)
	// Every node on a route except the head transmits the packet once.
	loads := make([]int, 36)
	for v := 1; v <= 35; v++ {
		r := routes[v]
		if len(r) < 2 || r[0] != v || r[len(r)-1] != topo.Head {
			t.Fatalf("bad route for sensor %d: %v", v, r)
		}
		for _, x := range r[:len(r)-1] {
			loads[x] += demand[v]
		}
	}
	for v := 1; v <= 35; v++ {
		// Every sensor at least carries its own packets.
		if loads[v] < demand[v] {
			t.Fatalf("sensor %d load %d below own demand", v, loads[v])
		}
	}

	// --- Sectors (Section IV) ---
	part, err := sector.BuildPartition(c.G, topo.Head, routes, demand, sector.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if part.NSectors() < 1 {
		t.Fatal("no sectors")
	}

	// --- Operating cycles with loss (Sections II, III-D, V-F) ---
	p := cluster.DefaultParams()
	p.RateBps = 40
	p.LossProb = 0.05
	p.UseSectors = true
	p.EarlySleep = true
	p.Seed = 991
	r, err := cluster.NewRunner(c, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if s.DeliveredFraction() != 1 {
		t.Fatalf("polling delivered %v of offered under 5%% loss", s.DeliveredFraction())
	}
	if s.Retries == 0 {
		t.Fatal("5% loss should have caused re-polls")
	}
	if s.MeanActive <= 0 || s.MeanActive > 0.6 {
		t.Fatalf("implausible active fraction %v", s.MeanActive)
	}
	lifetimeBefore := s.Lifetime(energy.DefaultModel(), 500)

	// --- A relay dies; the cluster re-plans (robustness) ---
	victim := 0
	for v := 1; v <= 35; v++ {
		if c.Level[v] == 1 {
			victim = v
			break
		}
	}
	if victim == 0 {
		t.Fatal("no first-level sensor to kill")
	}
	c.MarkFailedBatch([]int{victim})
	r2, err := cluster.NewRunner(c, p)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r2.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.DeliveredFraction() != 1 {
		t.Fatalf("post-failure delivery %v", s2.DeliveredFraction())
	}
	if len(r2.Unreachable) == 0 {
		t.Fatal("the dead relay should be listed unreachable")
	}

	// --- The S-MAC baseline on the same deployment (Section VI-B) ---
	nw, err := smac.NewNetwork(c.Med, topo.Head, smac.DefaultConfig(0.5, 991))
	if err != nil {
		t.Fatal(err)
	}
	nw.StartCBR(40)
	m := nw.Run(40*time.Second, 10*time.Second)
	offered := float64(m.Generated*80) / 30.0
	smacTput := m.ThroughputBps(30*time.Second, 80)
	if smacTput >= offered {
		t.Fatalf("S-MAC at 50%% duty should shed load: %v >= %v", smacTput, offered)
	}
	// The headline comparison: polling delivers 100% with far less
	// active time than S-MAC's 50% duty.
	if s.MeanActive >= 0.5 {
		t.Fatalf("polling active %v not below S-MAC's 0.5 duty", s.MeanActive)
	}
	_ = lifetimeBefore
}

func TestFullFieldLifecycle(t *testing.T) {
	// A multi-cluster field end to end: Voronoi forming, channel
	// coloring, per-cluster polling, field lifetime.
	f := topo.BuildField(877, 300, 4, 150)
	cfg := topo.DefaultConfig(0, 0)
	cfg.SensorRange = 40
	cfg.HeadRange = 250
	p := cluster.DefaultParams()
	p.RateBps = 15
	p.Cycle = 10 * time.Second
	p.UseSectors = true
	rt, err := field.New(f, field.Config{
		Topo:              cfg,
		Params:            p,
		InterferenceRange: 80,
		BatteryJoules:     500,
		EpochCycles:       2,
		Epochs:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.Run(exp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Clusters == 0 {
		t.Fatal("no clusters simulated")
	}
	if s.Channels > 6 {
		t.Fatalf("coloring used %d channels", s.Channels)
	}
	if !s.FitsCycle(p.Cycle) {
		t.Fatalf("field duty %v does not fit the %v cycle", s.MaxColoredCycle(), p.Cycle)
	}
	if s.Lifetime <= 0 {
		t.Fatal("no field lifetime")
	}
	for _, c := range s.Reports[0].Clusters {
		if c.Delivered != c.Offered {
			t.Fatalf("cluster %d delivered %d of %d", c.Cluster, c.Delivered, c.Offered)
		}
	}
}

// TestLargeClusterSoak exercises the full pipeline at the paper's largest
// scale (100 sensors); skipped in -short mode.
func TestLargeClusterSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in short mode")
	}
	c, err := topo.Build(topo.DefaultConfig(100, 2025))
	if err != nil {
		t.Fatal(err)
	}
	p := cluster.DefaultParams()
	p.RateBps = 40
	p.UseSectors = true
	p.EarlySleep = true
	r, err := cluster.NewRunner(c, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if s.DeliveredFraction() != 1 {
		t.Fatalf("soak delivered %v", s.DeliveredFraction())
	}
	if r.Part == nil || r.Part.NSectors() < 3 {
		t.Fatal("a 100-sensor cluster should form several sectors")
	}
	if s.MeanActive >= 0.6 {
		t.Fatalf("soak active fraction %v implausible", s.MeanActive)
	}
}

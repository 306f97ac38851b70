package cluster

import (
	"testing"

	"repro/internal/topo"
)

// pickRelay returns a sensor that currently relays traffic for others (a
// first-level sensor with dependents), or 0 if none exists.
func pickRelay(r *Runner) int {
	routes := r.Plan.CycleRoutes(0)
	counts := map[int]int{}
	for v, route := range routes {
		for _, x := range route[1 : len(route)-1] {
			_ = v
			counts[x]++
		}
	}
	best, bestCount := 0, 0
	for x, c := range counts {
		if c > bestCount {
			best, bestCount = x, c
		}
	}
	return best
}

func TestRelayFailureRePlanning(t *testing.T) {
	c, err := topo.Build(topo.DefaultConfig(30, 83))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.LossProb = 0
	p.RateBps = 20
	before, err := NewRunner(c, p)
	if err != nil {
		t.Fatal(err)
	}
	victim := pickRelay(before)
	if victim == 0 {
		t.Skip("deployment has no multi-hop relays")
	}

	// Kill the busiest relay; rebuild and re-plan.
	c.MarkFailedBatch([]int{victim})
	after, err := NewRunner(c, p)
	if err != nil {
		t.Fatal(err)
	}
	// The victim is gone from the plan and may have stranded others.
	for _, v := range after.Unreachable {
		if v == victim {
			continue
		}
		if c.Level[v] > 0 {
			t.Fatalf("sensor %d marked unreachable but has level %d", v, c.Level[v])
		}
	}
	found := false
	for _, v := range after.Unreachable {
		if v == victim {
			found = true
		}
	}
	if !found {
		t.Fatal("failed sensor should be listed unreachable")
	}
	// No surviving route passes through the dead sensor.
	for v, route := range after.Plan.CycleRoutes(0) {
		for _, x := range route {
			if x == victim {
				t.Fatalf("route of %d still uses dead sensor %d", v, victim)
			}
		}
	}
	// The cluster still operates and delivers the survivors' packets.
	res, err := after.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Offered {
		t.Fatalf("delivered %d of %d after failure", res.Delivered, res.Offered)
	}
	// Dead sensors spend no energy.
	prof := res.Profiles[victim]
	if prof.InTx != 0 || prof.InRx != 0 || prof.InIdle != 0 {
		t.Fatalf("dead sensor has a non-empty profile: %+v", prof)
	}
}

func TestFailureWithSectors(t *testing.T) {
	c, err := topo.Build(topo.DefaultConfig(30, 89))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.LossProb = 0
	p.UseSectors = true
	r0, err := NewRunner(c, p)
	if err != nil {
		t.Fatal(err)
	}
	victim := pickRelay(r0)
	if victim == 0 {
		t.Skip("no relays")
	}
	c.MarkFailedBatch([]int{victim})
	r, err := NewRunner(c, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Offered {
		t.Fatalf("sector mode delivered %d of %d after failure", res.Delivered, res.Offered)
	}
	// Dead sensors must not appear in any sector.
	if r.Part != nil && r.Part.SectorOf(victim) != -1 {
		t.Fatal("dead sensor assigned to a sector")
	}
}

func TestHeadCannotFail(t *testing.T) {
	c, err := topo.Build(topo.DefaultConfig(5, 97))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.MarkFailedBatch([]int{topo.Head})
}

func TestReachableShrinksAfterFailure(t *testing.T) {
	c, err := topo.Build(topo.DefaultConfig(20, 101))
	if err != nil {
		t.Fatal(err)
	}
	before := c.ReachableCount()
	if before != 20 {
		t.Fatalf("initially reachable = %d", before)
	}
	c.MarkFailedBatch([]int{5})
	after := c.ReachableCount()
	if after >= before {
		t.Fatalf("reachable %d should shrink after failure", after)
	}
}

// Sectors walks through Section IV of the paper on one cluster: compute
// load-balanced relaying paths, flow-merge them into a tree, build sectors
// by pairing first-level branches, and show what the partition buys —
// shorter idle listening and a longer lifetime — and what it costs —
// possibly higher sensor loads.
//
//	go run ./examples/sectors
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/routing"
	"repro/internal/sector"
	"repro/internal/topo"
)

func main() {
	log.SetFlags(0)

	const n = 30
	c, err := topo.Build(topo.DefaultConfig(n, 21))
	if err != nil {
		log.Fatal(err)
	}
	demand := make([]int, n+1)
	for v := 1; v <= n; v++ {
		demand[v] = 2
	}

	// Step 1: min-max load routing via the flow network (Section III-A).
	plan, err := routing.BalancedPaths(c.G, topo.Head, demand)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== Load-balanced routing ==\nmin-max sensor load (delta): %d packets/cycle\n\n", plan.Delta)

	// Step 2: flow merging + branch pairing (Section IV-B).
	part, err := sector.BuildPartition(c.G, topo.Head, plan.CycleRoutes(0), demand, sector.Options{})
	if err != nil {
		log.Fatal(err)
	}
	loads := sector.TreeLoads(part.Parent, topo.Head, demand)
	maxLoad := 0
	for v := 1; v <= n; v++ {
		if loads[v] > maxLoad {
			maxLoad = loads[v]
		}
	}
	fmt.Printf("== Sector partition ==\nsectors: %d; max tree load after flow merging: %d (flow optimum was %d)\n",
		part.NSectors(), maxLoad, plan.Delta)
	for k, sec := range part.Sectors {
		fmt.Printf("  sector %d: roots %v, %d sensors, max pseudo rate %.0f\n",
			k, part.Roots[k], len(sec),
			maxRateOf(part, demand, k))
	}

	// Step 3: what sectors buy — run the cluster both ways.
	fmt.Printf("\n== Effect on duty and lifetime ==\n")
	base := cluster.DefaultParams()
	base.RateBps = 40
	withSectors := base
	withSectors.UseSectors = true

	em := energy.DefaultModel()
	for _, mode := range []struct {
		name string
		p    cluster.Params
	}{{"no sectors", base}, {"with sectors", withSectors}} {
		r, err := cluster.NewRunner(c, mode.p)
		if err != nil {
			log.Fatal(err)
		}
		s, err := r.Run(5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s active %5.2f%%  mean duty %8v  lifetime at 100 J: %v\n",
			mode.name+":", s.MeanActive*100, s.MeanDuty.Round(time.Millisecond),
			s.Lifetime(em, 100).Round(time.Minute))
	}
}

func maxRateOf(p *sector.Partition, demand []int, k int) float64 {
	rates := sector.PseudoRates(p, demand, 1, 1)
	max := 0.0
	for _, v := range p.Sectors[k] {
		if rates[v] > max {
			max = rates[v]
		}
	}
	return max
}

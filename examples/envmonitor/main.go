// Envmonitor models the paper's motivating application — ground
// temperature monitoring: a field covered by several heterogeneous
// clusters, each gathering low-rate sensor readings for months on one
// battery. It deploys a multi-cluster field with Voronoi cluster forming
// (Section V-A), assigns inter-cluster radio channels by coloring
// (Section V-G), simulates every cluster's polling with sector
// partitioning for one epoch, and reports field-wide energy figures. A
// second phase runs the field runtime for several epochs with fault
// churn to show the field surviving sensor deaths.
//
//	go run ./examples/envmonitor
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/field"
	"repro/internal/topo"
)

func main() {
	log.SetFlags(0)

	const (
		heads     = 6
		sensors   = 420 // dense enough for multi-hop chains to the heads
		fieldSide = 400.0
		rateBps   = 10 // a temperature reading is tiny and rare
		batteryJ  = 2000.0
	)

	fmt.Printf("== Ground temperature monitoring: %d clusters, %d sensors over %.0fx%.0f m ==\n\n",
		heads, sensors, fieldSide, fieldSide)

	// Cluster forming: heads compute Voronoi cells (Section V-A).
	fld := topo.BuildField(7, fieldSide, heads, sensors)
	sizes := make([]int, heads)
	for _, cl := range fld.Assign {
		sizes[cl]++
	}
	fmt.Printf("Voronoi cluster sizes: %v\n", sizes)

	params := cluster.DefaultParams()
	params.RateBps = rateBps
	params.Cycle = 30 * time.Second // readings are infrequent
	params.UseSectors = true
	params.EarlySleep = true

	cfg := topo.DefaultConfig(0, 0) // radio/range parameters for every cluster
	cfg.SensorRange = 40            // Voronoi cells are wide; reach accordingly
	cfg.HeadRange = 300
	// Phase one: a single epoch of four duty cycles, no churn.
	rt, err := field.New(fld, field.Config{
		Topo:              cfg,
		Params:            params,
		InterferenceRange: 80,
		BatteryJoules:     batteryJ,
		EpochCycles:       4,
		Epochs:            1,
	})
	if err != nil {
		log.Fatal(err)
	}
	summary, err := rt.Run(exp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	first := summary.Reports[0]

	fmt.Printf("radio channels used: %d (paper guarantees <= 6 for the planar-like cluster graph)\n\n",
		summary.Channels)
	for _, c := range first.Clusters {
		delivered := 1.0
		if c.Offered > 0 {
			delivered = float64(c.Delivered) / float64(c.Offered)
		}
		fmt.Printf("cluster %d (channel %d): duty %8v/cycle, live %3d sensors, delivered %3.0f%%, retries %d\n",
			c.Cluster, c.Channel, c.MeanDuty.Round(time.Millisecond), c.Live, delivered*100, c.Retries)
	}
	if summary.StrandedFinal > 0 {
		fmt.Printf("\nstranded sensors (no multi-hop path to their head): %d\n", summary.StrandedFinal)
	}
	fmt.Printf("\nfield lifetime (first sensor death anywhere): %v\n", summary.Lifetime.Round(time.Hour))
	fmt.Printf("minimum field cycle under token rotation: %v; under %d-channel coloring: %v\n",
		first.TokenCycle.Round(time.Millisecond), summary.Channels,
		first.ColoredCycle.Round(time.Millisecond))
	fmt.Printf("the %v cycle leaves %.1fx headroom on the busiest channel\n",
		params.Cycle, float64(params.Cycle)/float64(first.ColoredCycle))

	// Phase two: months of operation compressed into churned epochs.
	// Every epoch one in three clusters loses a sensor to hardware
	// failure; the head re-plans around the gap and the field keeps
	// delivering for the survivors.
	fmt.Printf("\n== Field runtime: 8 epochs with relay-fault churn ==\n\n")
	rt, err = field.New(fld, field.Config{
		Topo:              cfg,
		Params:            params,
		InterferenceRange: 80,
		BatteryJoules:     batteryJ,
		EpochCycles:       2,
		Epochs:            8,
		Churn:             field.Churn{FaultRate: 0.33},
	})
	if err != nil {
		log.Fatal(err)
	}
	run, err := rt.Run(exp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, rep := range run.Reports {
		live := 0
		for _, c := range rep.Clusters {
			live += c.Live
		}
		fmt.Printf("epoch %d: %d clusters, %4d live sensors, colored cycle %8v, deaths %d, stranded %d\n",
			rep.Epoch, len(rep.Clusters), live, rep.ColoredCycle.Round(time.Millisecond),
			len(rep.Deaths), rep.Stranded)
	}
	fmt.Printf("\ndelivered %.1f%% of offered packets across the run; %d deaths, %d re-plans\n",
		run.DeliveredFraction()*100, len(run.Deaths), run.ReplansTotal)
}

package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/field"
	"repro/internal/topo"
)

// The field figure: a sweep over field size x churn rate through the
// internal/field runtime. Each cell deploys a Voronoi field, colors its
// inter-cluster interference graph, then runs churned epochs, reporting
// run-wide throughput at the heads, the steady-state lifetime estimate,
// the surviving population and whether the busiest channel's duty still
// fits the cycle. Cells run sequentially — the runtime itself runs a
// cell's clusters on a pool bounded by opts.Workers.
func runFieldFig(opts exp.Options, quick bool) ([]string, [][]string, error) {
	type size struct {
		heads, sensors int
		side           float64
	}
	sizes := []size{{4, 80, 300}, {6, 150, 380}, {9, 240, 460}}
	churns := []float64{0, 0.25, 0.5}
	epochs := 6
	if quick {
		sizes = sizes[:2]
		churns = []float64{0, 0.5}
		epochs = 3
	}

	p := cluster.DefaultParams()
	p.RateBps = 15
	p.Cycle = 10 * time.Second
	p.UseSectors = true
	p.EarlySleep = true

	headers := []string{
		"clusters", "sensors", "churn", "channels", "throughput_Bps",
		"delivered_pct", "lifetime_h", "deaths", "stranded", "colored_cycle_ms", "fits",
	}
	var rows [][]string
	for _, sz := range sizes {
		for _, rate := range churns {
			f := topo.BuildField(877, sz.side, sz.heads, sz.sensors)
			cfg := topo.DefaultConfig(0, 0)
			cfg.SensorRange = 40
			cfg.HeadRange = sz.side
			rt, err := field.New(f, field.Config{
				Topo:              cfg,
				Params:            p,
				InterferenceRange: 80,
				BatteryJoules:     300,
				EpochCycles:       2,
				Epochs:            epochs,
				Churn:             field.Churn{FaultRate: rate},
			})
			if err != nil {
				return nil, nil, err
			}
			s, err := rt.Run(opts)
			if err != nil {
				return nil, nil, err
			}
			seconds := float64(s.Epochs*s.EpochCycles) * p.Cycle.Seconds()
			rows = append(rows, []string{
				fmt.Sprint(sz.heads), fmt.Sprint(sz.sensors), fmt.Sprintf("%.2f", rate),
				fmt.Sprint(s.Channels),
				fmt.Sprintf("%.1f", float64(s.DeliveredTotal*p.DataBytes)/seconds),
				fmt.Sprintf("%.1f", s.DeliveredFraction()*100),
				fmt.Sprintf("%.1f", s.Lifetime.Hours()),
				fmt.Sprint(len(s.Deaths)),
				fmt.Sprint(s.StrandedFinal),
				fmt.Sprintf("%.1f", float64(s.MaxColoredCycle())/float64(time.Millisecond)),
				fmt.Sprint(s.FitsCycle(p.Cycle)),
			})
		}
	}
	return headers, rows, nil
}

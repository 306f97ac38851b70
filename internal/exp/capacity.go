package exp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Capacity experiment: the paper's Fig. 7(a) discussion implies a capacity
// frontier — the maximum per-sensor rate each cluster size sustains with
// no packet loss. This table makes the frontier explicit.

// CapacityRow is one cluster size's sustainable rate.
type CapacityRow struct {
	Nodes int
	// MaxRateBps is the largest per-sensor rate with every duty cycle
	// fitting, mean over seeds.
	MaxRateBps float64
	// TotalBps is Nodes * MaxRateBps, the cluster-level intake.
	TotalBps float64
}

// CapacityConfig sweeps cluster sizes at fixed cluster parameters.
type CapacityConfig struct {
	Nodes  []int
	Seeds  []int64
	Params cluster.Params
}

// DefaultCapacity sweeps 10-100 sensors on the paper's defaults with
// packet loss off, since the frontier is the lossless rate.
func DefaultCapacity() CapacityConfig {
	p := cluster.DefaultParams()
	p.LossProb = 0
	return CapacityConfig{
		Nodes:  []int{10, 20, 30, 40, 60, 80, 100},
		Seeds:  []int64{1, 2},
		Params: p,
	}
}

// QuickCapacity is a cut-down sweep for tests and quick runs.
func QuickCapacity() CapacityConfig {
	c := DefaultCapacity()
	c.Nodes = []int{10, 30}
	c.Seeds = []int64{1}
	return c
}

// Capacity sweeps cluster sizes for the sustainable-rate frontier, one
// size per parallel sweep cell.
func Capacity(o Options, cfg CapacityConfig) ([]CapacityRow, error) {
	return Sweep(o, len(cfg.Nodes), func(i int) (CapacityRow, error) {
		n := cfg.Nodes[i]
		var rates []float64
		for _, seed := range cfg.Seeds {
			c, err := topo.Build(topo.DefaultConfig(n, seed))
			if err != nil {
				return CapacityRow{}, err
			}
			r, err := cluster.MaxSustainableRate(c, cfg.Params, 1, 8)
			if err != nil {
				return CapacityRow{}, err
			}
			rates = append(rates, r)
		}
		mean := stats.Mean(rates)
		return CapacityRow{Nodes: n, MaxRateBps: mean, TotalBps: mean * float64(n)}, nil
	})
}

// RenderCapacity formats the frontier.
func RenderCapacity(rows []CapacityRow) string {
	headers := []string{"nodes", "max per-sensor rate (B/s)", "cluster intake (B/s)"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%.0f", r.MaxRateBps),
			fmt.Sprintf("%.0f", r.TotalBps),
		})
	}
	return stats.Table(headers, out)
}

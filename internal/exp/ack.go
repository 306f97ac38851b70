package exp

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Acknowledgment-collection ablation (Section V-F): finishing the ack
// phase in minimum time is NP-hard; the paper decomposes it into (1) a
// minimum-cost set of relaying paths covering all sensors — weighted set
// cover, solved greedily — and (2) polling the chosen paths' first
// sensors. This ablation measures the greedy cover against the exact
// optimum on real (small) clusters.

// AckRow is one cluster's ack-cover comparison.
type AckRow struct {
	Nodes int
	// GreedyCost and OptimalCost are total hop counts of the covers.
	GreedyCost, OptimalCost float64
	// GreedyPaths and OptimalPaths count the chosen paths (ack packets).
	GreedyPaths, OptimalPaths int
}

// AblationAckCover compares the greedy ack cover to the exhaustive
// optimum, one cluster size per parallel sweep cell. Cluster sizes must
// stay small: the exact solver enumerates subsets of the candidate paths.
func AblationAckCover(o Options, nodes []int, seeds []int64) ([]AckRow, error) {
	return Sweep(o, len(nodes), func(i int) (AckRow, error) {
		n := nodes[i]
		if n > 20 {
			return AckRow{}, fmt.Errorf("exp: exact ack cover limited to 20 sensors, got %d", n)
		}
		var gCosts, oCosts, gPaths, oPaths []float64
		for _, seed := range seeds {
			c, err := topo.Build(topo.DefaultConfig(n, seed))
			if err != nil {
				return AckRow{}, err
			}
			demand := make([]int, n+1)
			for v := 1; v <= n; v++ {
				demand[v] = 1
			}
			plan, err := routing.BalancedPaths(c.G, topo.Head, demand)
			if err != nil {
				return AckRow{}, err
			}
			routes := plan.CycleRoutes(0)
			subsets := make([]graph.Subset, 0, n)
			for v := 1; v <= n; v++ {
				var elems []int
				for _, x := range routes[v][:len(routes[v])-1] {
					elems = append(elems, x-1) // universe is sensors 0..n-1
				}
				subsets = append(subsets, graph.Subset{
					Elements: elems, Cost: float64(len(routes[v]) - 1),
				})
			}
			gChosen, gCost, err := graph.GreedySetCover(n, subsets)
			if err != nil {
				return AckRow{}, err
			}
			oChosen, oCost, err := graph.OptimalSetCover(n, subsets)
			if err != nil {
				return AckRow{}, err
			}
			if gCost < oCost-1e-9 {
				return AckRow{}, fmt.Errorf("exp: greedy cover beat the optimum (%v < %v)", gCost, oCost)
			}
			gCosts = append(gCosts, gCost)
			oCosts = append(oCosts, oCost)
			gPaths = append(gPaths, float64(len(gChosen)))
			oPaths = append(oPaths, float64(len(oChosen)))
		}
		return AckRow{
			Nodes:        n,
			GreedyCost:   stats.Mean(gCosts),
			OptimalCost:  stats.Mean(oCosts),
			GreedyPaths:  int(stats.Mean(gPaths) + 0.5),
			OptimalPaths: int(stats.Mean(oPaths) + 0.5),
		}, nil
	})
}

// RenderAck formats the ack-cover ablation.
func RenderAck(rows []AckRow) string {
	headers := []string{"nodes", "greedy cost", "optimal cost", "greedy paths", "optimal paths"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%.1f", r.GreedyCost),
			fmt.Sprintf("%.1f", r.OptimalCost),
			fmt.Sprintf("%d", r.GreedyPaths),
			fmt.Sprintf("%d", r.OptimalPaths),
		})
	}
	return stats.Table(headers, out)
}

package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/stats"
)

// JMHRP ablation (Section III-E): the paper decomposes the joint
// routing-and-scheduling problem — itself NP-hard — into min-max flow
// routing followed by the polling scheduler. On tiny random clusters the
// exact joint optimum is computable, so the decomposition's gap in the
// maximum power consumption rate (alpha*load + beta*T) is measurable.

// JointGapResult summarizes the decomposition gap.
type JointGapResult struct {
	Instances int
	// MeanGap and WorstGap are decomposed/joint max-rate ratios (>= 1).
	MeanGap, WorstGap float64
	// ExactHits counts instances where the decomposition matched the
	// joint optimum.
	ExactHits int
}

// AblationJointGap builds random small clusters, solves JMHRP exactly and
// via the paper's decomposition (flow routing + exact scheduling), and
// reports the rate ratio.
func AblationJointGap(instances int, seed int64) (*JointGapResult, error) {
	rng := rand.New(rand.NewSource(seed))
	res := &JointGapResult{Instances: instances, WorstGap: 1}
	var gaps []float64
	for i := 0; i < instances; i++ {
		ji := randomJointInstance(rng)
		// The clusters are tiny (4-5 sensors), so 12 candidates per
		// sensor covers every simple path and the enumeration is exact.
		joint, err := ji.SolveJointExact(12)
		if err != nil {
			return nil, err
		}
		plan, err := routing.BalancedPaths(ji.G, ji.Head, ji.Demand)
		if err != nil {
			return nil, err
		}
		dec, err := ji.SolveDecomposed(plan.CycleRoutes(0), true)
		if err != nil {
			return nil, err
		}
		gap := dec.MaxRate / joint.MaxRate
		if gap < 1-1e-9 {
			return nil, fmt.Errorf("exp: decomposition beat the joint optimum (%v < %v)",
				dec.MaxRate, joint.MaxRate)
		}
		gaps = append(gaps, gap)
		if gap > res.WorstGap {
			res.WorstGap = gap
		}
		if gap < 1+1e-9 {
			res.ExactHits++
		}
	}
	res.MeanGap = stats.Mean(gaps)
	return res, nil
}

// randomJointInstance builds a random connected cluster with 4-5 sensors,
// unit demand and a random pairwise compatibility table.
func randomJointInstance(rng *rand.Rand) *core.JointInstance {
	n := 4 + rng.Intn(2) // sensors
	g := graph.NewUndirected(n + 1)
	// Random connected graph: attach each sensor to a previous node.
	for v := 1; v <= n; v++ {
		g.AddEdge(v, rng.Intn(v))
		if rng.Float64() < 0.4 {
			g.AddEdge(v, rng.Intn(v))
		}
	}
	demand := make([]int, n+1)
	for v := 1; v <= n; v++ {
		demand[v] = 1
	}
	o := radio.NewTableOracle()
	// Random compatibility over the sensor-to-neighbor transmissions.
	var txs []radio.Transmission
	for u := 0; u <= n; u++ {
		for _, w := range g.Neighbors(u) {
			if u != 0 { // sensors transmit; the head only broadcasts
				txs = append(txs, radio.Transmission{From: u, To: w})
			}
		}
	}
	for i := range txs {
		for j := i + 1; j < len(txs); j++ {
			if rng.Float64() < 0.4 {
				o.AllowPair(txs[i], txs[j])
			}
		}
	}
	return &core.JointInstance{
		G: g, Head: 0, Demand: demand, Oracle: o, Alpha: 1, Beta: 0.5,
	}
}

// RenderJointGap formats the result.
func RenderJointGap(r *JointGapResult) string {
	return stats.Table(
		[]string{"instances", "decomposition = joint optimum", "mean gap", "worst gap"},
		[][]string{{
			fmt.Sprint(r.Instances), fmt.Sprint(r.ExactHits),
			fmt.Sprintf("%.3f", r.MeanGap), fmt.Sprintf("%.3f", r.WorstGap),
		}},
	)
}

package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Second batch of ablations: greedy optimality gap, scan order, and the
// early-sleep/sector energy decomposition.

// GreedyGapResult summarizes greedy vs. exact makespans over random small
// instances (the only sizes the NP-hard exact problem admits).
type GreedyGapResult struct {
	Instances  int
	MeanRatio  float64 // mean greedy/optimal makespan ratio
	WorstRatio float64
	ExactHits  int // instances where greedy matched the optimum
}

// AblationGreedyGap measures how far the paper's on-line greedy strays
// from the exact branch-and-bound optimum on random instances with the
// given number of requests.
func AblationGreedyGap(instances, nReq int, seed int64) (*GreedyGapResult, error) {
	if nReq > 9 {
		return nil, fmt.Errorf("exp: exact solver limited to small instances, got %d requests", nReq)
	}
	rng := rand.New(rand.NewSource(seed))
	res := &GreedyGapResult{Instances: instances, WorstRatio: 1}
	var ratios []float64
	for i := 0; i < instances; i++ {
		reqs, oracle := randomGapInstance(rng, nReq)
		g, _, err := core.Greedy(reqs, core.Options{Oracle: oracle})
		if err != nil {
			return nil, err
		}
		opt, err := core.Optimal(reqs, core.Options{Oracle: oracle})
		if err != nil {
			return nil, err
		}
		ratio := float64(g.Makespan()) / float64(opt.Makespan())
		ratios = append(ratios, ratio)
		if ratio > res.WorstRatio {
			res.WorstRatio = ratio
		}
		if g.Makespan() == opt.Makespan() {
			res.ExactHits++
		}
	}
	res.MeanRatio = stats.Mean(ratios)
	return res, nil
}

// randomGapInstance builds a random multi-hop instance over a pairwise
// compatibility table (same generator family as the core tests).
func randomGapInstance(rng *rand.Rand, nReq int) ([]core.Request, *radio.TableOracle) {
	var reqs []core.Request
	for i := 0; i < nReq; i++ {
		hops := 1 + rng.Intn(3)
		route := []int{0}
		for k := 0; k < hops; k++ {
			route = append([]int{10 + i*4 + k}, route...)
		}
		reqs = append(reqs, core.Request{ID: i + 1, Route: route})
	}
	o := radio.NewTableOracle()
	var all []radio.Transmission
	for _, r := range reqs {
		for k := 0; k < r.Hops(); k++ {
			all = append(all, r.Tx(k))
		}
	}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if rng.Float64() < 0.5 {
				o.AllowPair(all[i], all[j])
			}
		}
	}
	return reqs, o
}

// OrderRow reports the mean data slots per cycle under one scan-order
// heuristic.
type OrderRow struct {
	Order     string
	DataSlots float64
}

// AblationOrder compares scan-order heuristics for the greedy scheduler on
// a real cluster workload.
func AblationOrder(o Options, n int, seed int64, cycles int) ([]OrderRow, error) {
	c, err := topo.Build(topo.DefaultConfig(n, seed))
	if err != nil {
		return nil, err
	}
	demand := make([]int, n+1)
	for v := 1; v <= n; v++ {
		demand[v] = 2
	}
	plan, err := routing.BalancedPaths(c.G, topo.Head, demand)
	if err != nil {
		return nil, err
	}
	orders := []struct {
		name string
		fn   func([]core.Request) []int
	}{
		{"natural", core.OrderNatural},
		{"longest-first", core.OrderLongestFirst},
		{"shortest-first", core.OrderShortestFirst},
	}
	return Sweep(o, len(orders), func(i int) (OrderRow, error) {
		ord := orders[i]
		// Each cell is its own head with its own tested oracle; a verdict
		// depends only on the medium, so the heuristics still compare on
		// identical compatibility knowledge.
		oracle := radio.NewTestedOracle(radio.SINROracle{M: c.Med}, 3)
		total := 0
		for cyc := 0; cyc < cycles; cyc++ {
			routes := plan.CycleRoutes(cyc)
			var reqs []core.Request
			id := 0
			for v := 1; v <= n; v++ {
				for k := 0; k < demand[v]; k++ {
					id++
					reqs = append(reqs, core.Request{ID: id, Route: routes[v]})
				}
			}
			sched, _, err := core.Greedy(reqs, core.Options{
				Oracle: oracle, Order: ord.fn(reqs),
			})
			if err != nil {
				return OrderRow{}, err
			}
			total += sched.Makespan()
		}
		return OrderRow{Order: ord.name, DataSlots: float64(total) / float64(cycles)}, nil
	})
}

// EnergyModeRow reports active time and lifetime for one sleeping policy.
type EnergyModeRow struct {
	Mode       string
	ActivePct  float64
	LifetimeHr float64
}

// AblationEnergyModes decomposes where the energy savings come from:
// baseline polling, idealized early sleep, sector partitioning, and both
// combined.
func AblationEnergyModes(o Options, n int, seed int64, cycles int, batteryJ float64) ([]EnergyModeRow, error) {
	c, err := topo.Build(topo.DefaultConfig(n, seed))
	if err != nil {
		return nil, err
	}
	base := cluster.DefaultParams()
	base.RateBps = 40
	base.LossProb = 0
	base.Seed = seed
	modes := []struct {
		name string
		mut  func(*cluster.Params)
	}{
		{"baseline", func(*cluster.Params) {}},
		{"early-sleep", func(p *cluster.Params) { p.EarlySleep = true }},
		{"sectors", func(p *cluster.Params) { p.UseSectors = true }},
		{"sectors+early", func(p *cluster.Params) { p.UseSectors = true; p.EarlySleep = true }},
	}
	em := energy.DefaultModel()
	// The four policies share one deployment; each cell gets its own
	// runner, and the medium's query fast path is read-only.
	return Sweep(o, len(modes), func(i int) (EnergyModeRow, error) {
		p := base
		modes[i].mut(&p)
		r, err := cluster.NewRunner(c, p)
		if err != nil {
			return EnergyModeRow{}, err
		}
		r.Obs = o.Obs
		s, err := r.Run(cycles)
		if err != nil {
			return EnergyModeRow{}, err
		}
		return EnergyModeRow{
			Mode:       modes[i].name,
			ActivePct:  s.MeanActive * 100,
			LifetimeHr: s.Lifetime(em, batteryJ).Hours(),
		}, nil
	})
}

// RenderGreedyGap formats the gap result.
func RenderGreedyGap(r *GreedyGapResult) string {
	return stats.Table(
		[]string{"instances", "greedy = optimal", "mean ratio", "worst ratio"},
		[][]string{{
			fmt.Sprint(r.Instances), fmt.Sprint(r.ExactHits),
			fmt.Sprintf("%.3f", r.MeanRatio), fmt.Sprintf("%.3f", r.WorstRatio),
		}},
	)
}

// RenderOrder formats the scan-order ablation.
func RenderOrder(rows []OrderRow) string {
	headers := []string{"scan order", "mean data slots"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Order, fmt.Sprintf("%.1f", r.DataSlots)})
	}
	return stats.Table(headers, out)
}

// RenderEnergyModes formats the sleeping-policy decomposition.
func RenderEnergyModes(rows []EnergyModeRow) string {
	headers := []string{"mode", "active %", "lifetime (h)"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Mode, fmt.Sprintf("%.2f", r.ActivePct), fmt.Sprintf("%.1f", r.LifetimeHr),
		})
	}
	return stats.Table(headers, out)
}

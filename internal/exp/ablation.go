package exp

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topo"
)

// This file implements the ablations DESIGN.md calls out: each isolates
// one design choice of the paper and measures its effect.

// DeltaRow compares the paper's delta ascent with the bounded one for
// one cluster size: identical Delta, different solve counts. Both count
// cold max-flow solves, one per probed delta. PaperSolves is derived, not
// run: the paper's ascent probes every delta from the largest demand up
// to Delta, Delta - maxDemand + 1 solves, the last of them the feasible
// one whose flow is decomposed.
type DeltaRow struct {
	Nodes        int
	Delta        int
	PaperSolves  int
	LinearSolves int
}

// AblationDelta runs the routing search comparison, one cluster size per
// parallel sweep cell.
func AblationDelta(o Options, nodes []int, seed int64) ([]DeltaRow, error) {
	return Sweep(o, len(nodes), func(i int) (DeltaRow, error) {
		n := nodes[i]
		c, err := topo.Build(topo.DefaultConfig(n, seed))
		if err != nil {
			return DeltaRow{}, err
		}
		const perSensor = 2
		demand := make([]int, n+1)
		for v := 1; v <= n; v++ {
			demand[v] = perSensor
		}
		plan, err := routing.BalancedPaths(c.G, topo.Head, demand)
		if err != nil {
			return DeltaRow{}, err
		}
		return DeltaRow{
			Nodes: n, Delta: plan.Delta,
			PaperSolves:  plan.Delta - perSensor + 1,
			LinearSolves: plan.Solves,
		}, nil
	})
}

// MRow reports the polling makespan (data slots per cycle) at one
// compatibility degree M, along with the number of interference groups the
// head had to test.
type MRow struct {
	M           int
	DataSlots   float64
	OracleTests int
}

// AblationM sweeps the compatibility degree: larger M exposes more
// parallelism (shorter schedules) at the cost of testing more groups.
// Each M runs as its own parallel sweep cell.
func AblationM(o Options, n int, ms []int, seed int64, cycles int) ([]MRow, error) {
	return Sweep(o, len(ms), func(i int) (MRow, error) {
		m := ms[i]
		c, err := topo.Build(topo.DefaultConfig(n, seed))
		if err != nil {
			return MRow{}, err
		}
		p := cluster.DefaultParams()
		p.M = m
		p.RateBps = 40
		p.LossProb = 0
		p.Seed = seed
		r, err := cluster.NewRunner(c, p)
		if err != nil {
			return MRow{}, err
		}
		r.Obs = o.Obs
		s, err := r.Run(cycles)
		if err != nil {
			return MRow{}, err
		}
		return MRow{M: m, DataSlots: s.MeanDataSlots, OracleTests: s.OracleTests}, nil
	})
}

// DelayRow compares the pipelined (no-delay) scheduler against the
// delay-allowed variant — Theorem 2 says delay cannot shorten schedules.
type DelayRow struct {
	Nodes                      int
	PipelinedSlots, DelaySlots float64
}

// AblationDelay runs the comparison, one cluster size per parallel sweep
// cell; the pipelined and delay-allowed runners inside a cell share one
// deployment (the medium's query fast path is read-only).
func AblationDelay(o Options, nodes []int, seed int64, cycles int) ([]DelayRow, error) {
	return Sweep(o, len(nodes), func(i int) (DelayRow, error) {
		n := nodes[i]
		c, err := topo.Build(topo.DefaultConfig(n, seed))
		if err != nil {
			return DelayRow{}, err
		}
		base := cluster.DefaultParams()
		base.RateBps = 40
		base.LossProb = 0
		base.Seed = seed
		run := func(allowDelay bool) (float64, error) {
			p := base
			p.AllowDelay = allowDelay
			r, err := cluster.NewRunner(c, p)
			if err != nil {
				return 0, err
			}
			s, err := r.Run(cycles)
			if err != nil {
				return 0, err
			}
			return s.MeanDataSlots, nil
		}
		pipe, err := run(false)
		if err != nil {
			return DelayRow{}, err
		}
		delay, err := run(true)
		if err != nil {
			return DelayRow{}, err
		}
		return DelayRow{Nodes: n, PipelinedSlots: pipe, DelaySlots: delay}, nil
	})
}

// InterClusterRow compares the two Section V-G schemes for a multi-cluster
// field: token rotation (one cluster at a time) vs. channel coloring.
type InterClusterRow struct {
	Heads        int
	Channels     int
	TokenCycle   time.Duration
	ColoredCycle time.Duration
}

// AblationInterCluster builds a field, assigns channels by the <=6
// coloring, and compares the minimum feasible cycle lengths assuming each
// cluster needs the given duty window.
func AblationInterCluster(heads []int, sensorsPerHead int, duty time.Duration, seed int64) ([]InterClusterRow, error) {
	var out []InterClusterRow
	for _, h := range heads {
		f := topo.BuildField(seed, 500, h, h*sensorsPerHead)
		colors, used := f.ChannelAssignment(80)
		duties := make([]time.Duration, h)
		for i := range duties {
			duties[i] = duty
		}
		colored, err := cluster.ColoredCycle(duties, colors)
		if err != nil {
			return nil, err
		}
		out = append(out, InterClusterRow{
			Heads: h, Channels: used,
			TokenCycle:   cluster.TokenRotationCycle(duties),
			ColoredCycle: colored,
		})
	}
	return out, nil
}

// InterferenceModelResult quantifies the paper's Fig. 3 argument at the
// system level: schedules built trusting the pairwise protocol model can
// collide under accumulated-interference ground truth, while SINR-built
// schedules never do.
type InterferenceModelResult struct {
	Trials             int
	PairwiseCollisions int // trials whose pairwise-built schedule collides
	SINRCollisions     int // must be zero
}

// AblationInterferenceModel schedules random clusters under both oracles
// and validates each schedule against the SINR ground truth. Trials are
// independent parallel sweep cells; the tallies are reduced afterwards.
func AblationInterferenceModel(o Options, n, trials int, seed int64) (*InterferenceModelResult, error) {
	type tally struct {
		pairwise, sinr bool
	}
	tallies, err := Sweep(o, trials, func(trial int) (tally, error) {
		s := seed + int64(trial)
		c, err := topo.Build(topo.DefaultConfig(n, s))
		if err != nil {
			return tally{}, err
		}
		demand := make([]int, n+1)
		for v := 1; v <= n; v++ {
			demand[v] = 1
		}
		plan, err := routing.BalancedPaths(c.G, topo.Head, demand)
		if err != nil {
			return tally{}, err
		}
		routes := plan.CycleRoutes(0)
		var reqs []core.Request
		id := 0
		for v := 1; v <= n; v++ {
			id++
			reqs = append(reqs, core.Request{ID: id, Route: routes[v]})
		}
		truth := radio.SINROracle{M: c.Med}
		pairwise := radio.ProtocolOracle{Truth: truth}

		check := func(oracle radio.CompatibilityOracle) (bool, error) {
			sched, _, err := core.Greedy(reqs, core.Options{Oracle: oracle, MaxConcurrent: 4})
			if err != nil {
				return false, err
			}
			return core.Validate(sched, reqs, truth) != nil, nil
		}
		var t tally
		if t.pairwise, err = check(pairwise); err != nil {
			return tally{}, err
		}
		if t.sinr, err = check(truth); err != nil {
			return tally{}, err
		}
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	res := &InterferenceModelResult{Trials: trials}
	for _, t := range tallies {
		if t.pairwise {
			res.PairwiseCollisions++
		}
		if t.sinr {
			res.SINRCollisions++
		}
	}
	return res, nil
}

// RenderDelta formats the routing ablation.
func RenderDelta(rows []DeltaRow) string {
	headers := []string{"nodes", "delta", "paper +1 solves", "linear solves"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.Nodes), fmt.Sprintf("%d", r.Delta), fmt.Sprintf("%d", r.PaperSolves),
			fmt.Sprintf("%d", r.LinearSolves),
		})
	}
	return stats.Table(headers, out)
}

// RenderM formats the compatibility-degree ablation.
func RenderM(rows []MRow) string {
	headers := []string{"M", "mean data slots", "groups tested"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.M), fmt.Sprintf("%.1f", r.DataSlots),
			fmt.Sprintf("%d", r.OracleTests),
		})
	}
	return stats.Table(headers, out)
}

// RenderDelay formats the delay ablation.
func RenderDelay(rows []DelayRow) string {
	headers := []string{"nodes", "pipelined slots", "delay-allowed slots"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.Nodes), fmt.Sprintf("%.1f", r.PipelinedSlots),
			fmt.Sprintf("%.1f", r.DelaySlots),
		})
	}
	return stats.Table(headers, out)
}

// RenderInterCluster formats the inter-cluster ablation.
func RenderInterCluster(rows []InterClusterRow) string {
	headers := []string{"clusters", "channels", "token cycle", "colored cycle"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.Heads), fmt.Sprintf("%d", r.Channels),
			r.TokenCycle.String(), r.ColoredCycle.String(),
		})
	}
	return stats.Table(headers, out)
}

package cluster

import (
	"fmt"
	"time"

	"repro/internal/energy"
	"repro/internal/topo"
)

// Longitudinal simulation: run a cluster with real per-sensor batteries
// until they deplete. When a sensor dies the head re-plans routing (and
// sectors) around it; sensors stranded by the death stop participating.
// The result is the network-lifetime curve — how delivery capacity decays
// as batteries fail — extending the paper's Fig. 7(c) single-number
// lifetime into a trajectory.

// DeathEvent records one sensor's demise.
type DeathEvent struct {
	Sensor int
	// Cycle is the duty-cycle index at which the battery ran out.
	Cycle int
	// At is the elapsed simulated time.
	At time.Duration
	// Stranded lists sensors left without a relaying path as a result.
	Stranded []int
}

// LongitudinalResult summarizes a battery-depletion run.
type LongitudinalResult struct {
	// Cycles simulated before the stop condition.
	Cycles int
	// Deaths in order of occurrence.
	Deaths []DeathEvent
	// FirstDeath and LastAlive bracket the network's decay: time of the
	// first battery death and the time the run stopped.
	FirstDeath time.Duration
	End        time.Duration
	// DeliveredTotal and OfferedTotal count packets across the run
	// (offered counts only live sensors' packets).
	DeliveredTotal, OfferedTotal int
	// AliveAtEnd counts sensors still powered when the run stopped.
	AliveAtEnd int
}

// RunLongitudinal simulates up to maxCycles duty cycles with per-sensor
// batteries of the given capacity, killing sensors as they deplete and
// re-planning after every death. It stops early when fewer than
// minAliveFraction of the sensors remain reachable.
func RunLongitudinal(c *topo.Cluster, p Params, batteryJoules float64,
	maxCycles int, minAliveFraction float64) (*LongitudinalResult, error) {
	if maxCycles < 1 {
		return nil, fmt.Errorf("cluster: need at least one cycle")
	}
	if batteryJoules <= 0 {
		return nil, fmt.Errorf("cluster: non-positive battery capacity")
	}
	n := c.Sensors()
	batteries := make([]*energy.Battery, n+1)
	for v := 1; v <= n; v++ {
		batteries[v] = energy.NewBattery(p.Energy, batteryJoules)
	}
	res := &LongitudinalResult{}
	runner, err := NewRunner(c, p)
	if err != nil {
		return nil, err
	}
	dead := make([]bool, n+1)
	alive := n

	for cycle := 0; cycle < maxCycles; cycle++ {
		if float64(alive) < minAliveFraction*float64(n) {
			break
		}
		cr, err := runner.RunCycle()
		if err != nil {
			return nil, err
		}
		res.Cycles++
		res.End += p.Cycle
		res.DeliveredTotal += cr.Delivered
		res.OfferedTotal += cr.Offered

		// Drain batteries by this cycle's profiles.
		var newlyDead []int
		for v := 1; v <= n; v++ {
			if dead[v] {
				continue
			}
			prof := cr.Profiles[v]
			batteries[v].Draw(energy.Tx, prof.InTx)
			batteries[v].Draw(energy.Rx, prof.InRx)
			batteries[v].Draw(energy.Idle, prof.InIdle)
			batteries[v].Draw(energy.Sleep, prof.SleepTime())
			if batteries[v].Depleted() {
				newlyDead = append(newlyDead, v)
			}
		}
		if len(newlyDead) == 0 {
			continue
		}
		// Kill and re-plan.
		for _, v := range newlyDead {
			dead[v] = true
			alive--
		}
		c.MarkFailedBatch(newlyDead)
		runner, err = NewRunner(c, p)
		if err != nil {
			return nil, err
		}
		for _, v := range newlyDead {
			ev := DeathEvent{Sensor: v, Cycle: cycle, At: res.End}
			for _, s := range runner.Unreachable {
				if !dead[s] {
					ev.Stranded = append(ev.Stranded, s)
				}
			}
			res.Deaths = append(res.Deaths, ev)
			if res.FirstDeath == 0 {
				res.FirstDeath = res.End
			}
		}
	}
	for v := 1; v <= n; v++ {
		if !dead[v] {
			res.AliveAtEnd++
		}
	}
	return res, nil
}

// DeliveredFraction is the run-wide delivery ratio over live sensors'
// offered packets.
func (r *LongitudinalResult) DeliveredFraction() float64 {
	if r.OfferedTotal == 0 {
		return 1
	}
	return float64(r.DeliveredTotal) / float64(r.OfferedTotal)
}

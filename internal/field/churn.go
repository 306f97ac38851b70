package field

import (
	"repro/internal/cluster"
	"repro/internal/radio"
)

// The churn engine: each cluster runs its share of the epoch boundary
// right after its epoch, on the goroutine that ran it. Every draw is a
// pure hash of (churn seed, epoch, cluster, salt), so the fault sequence
// is a function of the configuration alone — independent of worker
// count, wall clock and iteration order — and a resumed runtime replays
// the exact same faults.

// Salt constants keep the three draw families independent streams.
const (
	saltFault  = 0xfa017
	saltVictim = 0x71c71
	saltShadow = 0x5ad00
)

// batteryChurnCluster integrates cluster k's epoch energy draw (the
// summary's mean per-cycle profiles over the epoch's cycles) into its
// batteries and kills the sensors whose batteries empty, appending their
// deaths (ascending by sensor — the canonical boundary order) to deaths.
// Stranded-but-powered sensors drain sleep energy like everyone else;
// already-dead sensors are left alone. The deaths go to the dead book and
// reach the topology as one batch in syncDeaths: one connectivity
// rebuild instead of one per death. Returns whether a sensor died.
func (rt *Runtime) batteryChurnCluster(epoch, k int, sum *cluster.Summary, cycles int, deaths *[]Death) bool {
	died := false
	for v := 1; v <= rt.clusters[k].Sensors(); v++ {
		if rt.dead[k][v] {
			continue
		}
		rt.batteries[k][v] -= sensorEnergy(rt.em, sum.MeanProfiles[v], cycles)
		if rt.batteries[k][v] <= 0 {
			rt.batteries[k][v] = 0
			rt.dead[k][v] = true
			died = true
			*deaths = append(*deaths, Death{
				Epoch: epoch, Cluster: k, Sensor: v, Cause: "battery",
			})
		}
	}
	if died {
		rt.syncDeaths(k)
	}
	return died
}

// faultChurnCluster draws cluster k's injected-fault coin for the
// boundary after epoch and, on a hit, kills one uniformly drawn reachable
// sensor. Returns whether a sensor died. The draw is a pure hash of
// (churn seed, epoch, k), so any process that owns cluster k at this
// boundary kills the same victim.
func (rt *Runtime) faultChurnCluster(epoch, k int, deaths *[]Death) bool {
	c := rt.clusters[k]
	seed := uint64(rt.cfg.churnSeed())
	draw := hashMix(seed, uint64(epoch), uint64(k), saltFault)
	if hashUnit(draw) >= rt.cfg.Churn.FaultRate {
		return false
	}
	alive := c.ReachableInto(rt.slots[k].reach)
	rt.slots[k].reach = alive
	if len(alive) == 0 {
		return false
	}
	pick := hashMix(seed, uint64(epoch), uint64(k), saltVictim)
	v := alive[int(pick%uint64(len(alive)))]
	rt.dead[k][v] = true
	rt.syncDeaths(k)
	*deaths = append(*deaths, Death{
		Epoch: epoch, Cluster: k, Sensor: v, Cause: "fault",
	})
	return true
}

// syncDeaths brings cluster k's topology up to its dead book: every
// sensor the book marks dead but the medium still powers (a live
// sensor's transmit power is never zero) is taken out in one
// topo.Cluster.MarkFailedBatch, equal to sequential MarkFailed in any
// order. It is the only place a death reaches a topology: the churn
// calls it after marking the book, and runCluster calls it before the
// cluster runs, which catches up deaths that merge, adoption or Resume
// wrote to the book alone.
func (rt *Runtime) syncDeaths(k int) {
	c := rt.clusters[k]
	s := &rt.slots[k]
	victims := s.victims[:0]
	for v, isDead := range rt.dead[k] {
		if isDead && c.Med.TxPower(v) != 0 {
			victims = append(victims, v)
		}
	}
	s.victims = victims
	c.MarkFailedBatch(victims)
}

// shadowEnabled reports whether shadow churn is configured and the
// propagation model exposes the shadowing hook.
func (rt *Runtime) shadowEnabled() bool {
	ch := rt.cfg.Churn
	if ch.ShadowSigmaDB <= 0 || ch.ShadowEvery <= 0 {
		return false
	}
	_, ok := rt.cfg.Topo.Prop.(*radio.LogDistance)
	return ok
}

// shadowDue reports whether the boundary after the given epoch shifts
// the shadowing environment.
func (rt *Runtime) shadowDue(epoch int) bool {
	return rt.shadowEnabled() && (epoch+1)%rt.cfg.Churn.ShadowEvery == 0
}

// revForEpoch is the shadowing-table revision in force while the given
// epoch runs: the number of shift boundaries before it. Every process
// derives the same revision from the epoch number alone — the radio
// environment is never part of any handoff payload or snapshot state.
func (rt *Runtime) revForEpoch(epoch int) int {
	if !rt.shadowEnabled() {
		return 0
	}
	return epoch / rt.cfg.Churn.ShadowEvery
}

// refreshTo brings cluster k's materialized links to shadow revision
// rev: it installs the revision's table on the cluster's own copy of the
// log-distance model and refreshes the cluster. Revisions only move
// forward (revision 0 is the model as built). The table is a pure
// function of (churn seed, revision, sigma), and a refresh re-derives
// every materialized link from it, so the path to a revision does not
// matter. Refresh cost is O(materialized links), not N^2 pairs.
func (rt *Runtime) refreshTo(k, rev int) {
	s := &rt.slots[k]
	if s.rev == rev {
		return
	}
	seed := int64(hashMix(uint64(rt.cfg.churnSeed()), uint64(rev), saltShadow))
	s.prop.ShadowDB = radio.HashShadow(seed, rt.cfg.Churn.ShadowSigmaDB)
	s.rev = rev
	rt.clusters[k].RefreshConnectivity()
}

// strandedIn counts cluster k's powered sensors without a relaying path
// to their head.
func (rt *Runtime) strandedIn(k int) int {
	c := rt.clusters[k]
	stranded := 0
	for v := 1; v <= c.Sensors(); v++ {
		if !rt.dead[k][v] && c.Level[v] <= 0 {
			stranded++
		}
	}
	return stranded
}

package field

// The epoch engine. RunShardEpoch advances a set of clusters (a shard:
// every cluster for RunEpoch, a worker's share in a distributed run)
// through one epoch; MergeEpoch folds one epoch's results for every
// cluster into the report, the Summary and the metrics. Because an epoch
// is a closed unit and every churn draw is a pure hash of (seed, epoch,
// cluster), a cluster's trajectory is independent of which process — or
// which goroutine — runs it, so a distributed Summary and Snapshot are
// byte-identical to a single-process run at any worker count.
//
// Each cluster owns all the state its epoch touches: its topology, its
// battery and death rows, its plan cache and runner scratch, its churn
// scratch, and its copy of the log-distance model, which carries the
// shadowing table. The table for revision r is a pure function of
// (churn seed, r); a cluster records which revision its links reflect
// and catches up with one refresh before it runs, so a fresh adoptee or
// a resumed runtime needs no history. That ownership is what lets
// RunShardEpoch run its clusters on a pool.
//
// The boundary state a process exchanges is a cluster's dead and battery
// books, shipped as a full-state ClusterDelta (delta.go): every result
// carries one, a checkpoint holds one per cluster, and
// AdoptClusterDelta installs them — it writes the books and moves the
// cluster's epoch forward, for a handoff and for every cluster Resume
// restores. MergeEpoch and AdoptClusterDelta write only the books;
// a cluster's topology catches up to them in syncDeaths at the top of
// runCluster, so a coordinator that only merges never touches a
// topology, and an adopting worker continues the cluster's trajectory
// exactly where the lost worker left it.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/obs"
)

// Sentinel errors for the shard protocol. Wrapped, match with errors.Is.
var (
	// ErrShardEpoch marks an epoch-ordering violation: a cluster asked to
	// run or adopt an epoch it cannot reach from its current one.
	ErrShardEpoch = errors.New("shard epoch out of step")
	// ErrShardMismatch marks a handoff or merge payload that does not fit
	// the runtime's field: unknown cluster, wrong per-cluster fingerprint,
	// battery-mode disagreement, or out-of-range sensors.
	ErrShardMismatch = errors.New("shard state does not match cluster")
)

// ClusterResult is one cluster's product for one epoch: the report row,
// the churn that closed the epoch, the planner's work, and the boundary
// state afterward. MergeEpoch consumes exactly these.
type ClusterResult struct {
	// Epoch is the epoch this result is for.
	Epoch int `json:"epoch"`
	// Row is the compact per-epoch report row.
	Row ClusterEpoch `json:"row"`
	// Deaths at this epoch's boundary, battery deaths (ascending by
	// sensor) before the injected fault — the order the merged report
	// records them in.
	Deaths []Death `json:"deaths,omitempty"`
	// Stranded counts the cluster's powered sensors without a relaying
	// path after the boundary.
	Stranded int `json:"stranded"`
	// Changed reports whether the boundary altered the cluster's
	// connectivity (it will re-plan for the next epoch).
	Changed bool `json:"changed"`
	// Lifetime is the cluster's steady-state first-death estimate, only
	// populated (HasLifetime) on epoch 0 of a battery-backed run for
	// clusters with at least one live sensor.
	Lifetime    time.Duration `json:"lifetime_ns,omitempty"`
	HasLifetime bool          `json:"has_lifetime,omitempty"`
	// CacheHit reports whether the routing plan came from the plan cache;
	// on a miss, Solves and Augments carry the fresh plan's max-flow
	// solves and augmenting paths.
	CacheHit bool `json:"cache_hit,omitempty"`
	Solves   int  `json:"solves,omitempty"`
	Augments int  `json:"augments,omitempty"`
	// Delta is the cluster's full boundary state after the epoch
	// (delta.go).
	Delta *ClusterDelta `json:"delta,omitempty"`
}

// FieldHash is the deployment fingerprint ("%016x" of
// topo.Field.Fingerprint) — what snapshots and worker sessions validate
// against.
func (rt *Runtime) FieldHash() string {
	return fmt.Sprintf("%016x", rt.f.Fingerprint())
}

// ClusterIndexes returns the indices of the field's non-empty clusters,
// ascending — the unit of distributed assignment and of MergeEpoch's
// coverage check.
func (rt *Runtime) ClusterIndexes() []int {
	return append([]int(nil), rt.indexes...)
}

// has reports whether k names a non-empty cluster.
func (rt *Runtime) has(k int) bool {
	return k >= 0 && k < len(rt.clusters) && rt.clusters[k] != nil
}

// fingerprint returns cluster k's geometry hash ("%016x" of
// topo.Field.ClusterFingerprint), computed on first use and cached in
// slot k, which only one goroutine touches at a time.
func (rt *Runtime) fingerprint(k int) string {
	s := &rt.slots[k]
	if s.fingerprint == "" {
		s.fingerprint = fmt.Sprintf("%016x", rt.f.ClusterFingerprint(k))
	}
	return s.fingerprint
}

// RunShardEpoch advances the given clusters through one epoch: each runs
// its duty cycles and its share of the churn boundary, and returns its
// report row, deaths, planner work and boundary delta, ascending by
// cluster. The clusters run on at most o.WorkerCount() goroutines; the
// call returns only after all of them have exited.
//
// Each cluster must be exactly at epoch (completed epochs == epoch);
// a cluster already at epoch+1 returns its cached result instead, so a
// coordinator that lost a response can safely re-ask. Anything else is
// ErrShardEpoch. The whole shard is validated before any cluster runs;
// a cluster that fails mid-run leaves the others advanced, and re-asking
// with the same epoch is always safe.
func (rt *Runtime) RunShardEpoch(o exp.Options, epoch int, ks []int) ([]ClusterResult, error) {
	if epoch < 0 {
		return nil, fmt.Errorf("field: %w: negative epoch %d", ErrShardEpoch, epoch)
	}
	sorted := append(rt.scratchSorted[:0], ks...)
	sort.Ints(sorted)
	rt.scratchSorted = sorted
	pending := make([]int, 0, len(sorted))
	for i, k := range sorted {
		if i > 0 && sorted[i-1] == k {
			return nil, fmt.Errorf("field: %w: cluster %d listed twice in shard", ErrShardMismatch, k)
		}
		if !rt.has(k) {
			return nil, fmt.Errorf("field: %w: no cluster %d", ErrShardMismatch, k)
		}
		switch s := &rt.slots[k]; {
		case s.epoch == epoch:
			pending = append(pending, k)
		case s.epoch == epoch+1 && s.result != nil && s.result.Epoch == epoch:
		default:
			return nil, fmt.Errorf("field: %w: cluster %d has completed %d epochs, asked to run epoch %d",
				ErrShardEpoch, k, s.epoch, epoch)
		}
	}

	errs := make([]error, len(pending))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(o.WorkerCount(), len(pending)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(pending); i = int(next.Add(1) - 1) {
				errs[i] = rt.runCluster(o, epoch, pending[i])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	if o.Obs != nil {
		rt.emitRadio(sorted, o.Obs)
	}
	out := make([]ClusterResult, len(sorted))
	for i, k := range sorted {
		out[i] = *rt.slots[k].result
	}
	return out, nil
}

// runCluster runs cluster k's epoch and its share of the churn boundary
// and records the result in slot k. It touches only cluster k's state,
// so the pool runs different clusters concurrently.
func (rt *Runtime) runCluster(o exp.Options, epoch, k int) error {
	c := rt.clusters[k]
	s := &rt.slots[k]
	// The topology catches up to the books — deaths that merge, adoption
	// or Resume wrote — and then to the epoch's shadowing table, which a
	// fresh adoptee or a resumed runtime may have skipped revisions of.
	rt.syncDeaths(k)
	rev := rt.revForEpoch(epoch)
	rt.refreshTo(k, rev)

	// Dark clusters (no live reachable sensor) still run: the head keeps
	// broadcasting its wake/sleep cycle whether or not anyone answers.
	cycles := rt.cfg.epochCycles()
	live := c.ReachableCount()
	pk := rt.cfg.Params
	pk.Seed = rt.epochSeed(epoch, k)
	misses := s.cache.Misses
	if s.runner == nil {
		s.runner = &cluster.RunnerScratch{}
	}
	r, err := cluster.NewRunnerScratch(c, pk, s.cache, s.runner)
	if err != nil {
		return fmt.Errorf("field: cluster %d epoch %d: %w", k, epoch, err)
	}
	res := &ClusterResult{Epoch: epoch, CacheHit: s.cache.Misses == misses}
	if !res.CacheHit {
		res.Solves = r.Plan.Solves
		res.Augments = r.Plan.AugmentingPaths
	}
	r.Obs = o.Obs
	unreachable := len(r.Unreachable)
	sum, err := r.Run(cycles)
	if err != nil {
		return fmt.Errorf("field: cluster %d epoch %d: %w", k, epoch, err)
	}
	res.Row = ClusterEpoch{
		Cluster:   k,
		Channel:   rt.colors[k],
		Live:      live,
		Offered:   sum.Offered,
		Delivered: sum.Delivered,
		Retries:   sum.Retries,
		MeanDuty:  sum.MeanDuty,
		Fits:      sum.AllFit,
	}
	// The steady-state lifetime estimate MergeEpoch mins over comes from
	// epoch 0, before churn reshapes the load.
	if epoch == 0 && rt.cfg.BatteryJoules > 0 && unreachable < c.Sensors() {
		res.Lifetime = sum.Lifetime(rt.em, rt.cfg.BatteryJoules)
		res.HasLifetime = true
	}

	// The churn boundary: battery kills, then the fault draw, then the
	// shadow shift.
	if rt.batteries != nil {
		if rt.batteryChurnCluster(epoch, k, sum, cycles, &res.Deaths) {
			res.Changed = true
		}
	}
	if rt.cfg.Churn.FaultRate > 0 && rt.faultChurnCluster(epoch, k, &res.Deaths) {
		res.Changed = true
	}
	if rt.shadowDue(epoch) {
		prev := c.ConnectivityRev()
		rt.refreshTo(k, rev+1)
		if c.ConnectivityRev() != prev {
			res.Changed = true
		}
	}
	res.Stranded = rt.strandedIn(k)

	// The delta, encoded at the completed epoch, is freshly allocated: it
	// stays in the slot for idempotent re-query.
	s.epoch = epoch + 1
	d, err := rt.EncodeClusterDelta(k)
	if err != nil {
		return err
	}
	res.Delta = &d
	s.result = res
	return nil
}

// MergeEpoch folds one epoch's per-cluster results into this runtime:
// the only code that builds an EpochReport and advances the Summary. The
// runtime must sit at the epoch the results are for, and the results
// must cover exactly the field's non-empty clusters. The merge rebuilds
// the report in cluster-index order, writes every boundary delta into
// the runtime's dead and battery books (an exact copy for results the
// runtime produced itself) without touching any topology, and emits the
// field_* and routing series into o when it is non-nil.
func (rt *Runtime) MergeEpoch(o obs.Observer, results []ClusterResult) (*EpochReport, error) {
	epoch := rt.epoch
	if rt.scratchByK == nil {
		rt.scratchByK = make([]*ClusterResult, len(rt.clusters))
	}
	byK := rt.scratchByK
	clear(byK)
	for i := range results {
		r := &results[i]
		k := r.Row.Cluster
		if !rt.has(k) {
			return nil, fmt.Errorf("field: %w: result for unknown cluster %d", ErrShardMismatch, k)
		}
		if byK[k] != nil {
			return nil, fmt.Errorf("field: %w: two results for cluster %d", ErrShardMismatch, k)
		}
		if r.Epoch != epoch {
			return nil, fmt.Errorf("field: %w: cluster %d result is for epoch %d, merging epoch %d",
				ErrShardEpoch, k, r.Epoch, epoch)
		}
		if r.Row.Channel != rt.colors[k] {
			return nil, fmt.Errorf("field: %w: cluster %d ran on channel %d, coloring says %d",
				ErrShardMismatch, k, r.Row.Channel, rt.colors[k])
		}
		if r.Delta == nil || r.Delta.Cluster != k {
			return nil, fmt.Errorf("field: %w: cluster %d result carries no boundary state", ErrShardMismatch, k)
		}
		if err := rt.checkDelta(r.Delta); err != nil {
			return nil, err
		}
		if r.Delta.Epoch != epoch+1 {
			return nil, fmt.Errorf("field: %w: cluster %d delta is at epoch %d, merging epoch %d",
				ErrShardEpoch, k, r.Delta.Epoch, epoch)
		}
		byK[k] = r
	}

	rep := EpochReport{Epoch: epoch}
	duties := rt.scratchDuties[:0]
	dutyColors := rt.scratchDutyColors[:0]
	ordered := rt.scratchOrdered[:0]
	for _, k := range rt.indexes {
		r := byK[k]
		if r == nil {
			return nil, fmt.Errorf("field: %w: no result for cluster %d", ErrShardMismatch, k)
		}
		ordered = append(ordered, r)
		rep.Clusters = append(rep.Clusters, r.Row)
		duties = append(duties, r.Row.MeanDuty)
		dutyColors = append(dutyColors, rt.colors[k])
	}
	rt.scratchOrdered = ordered
	rt.scratchDuties, rt.scratchDutyColors = duties, dutyColors
	rep.TokenCycle = cluster.TokenRotationCycle(duties)
	colored, err := cluster.ColoredCycle(duties, dutyColors)
	if err != nil {
		return nil, err
	}
	rep.ColoredCycle = colored

	// Boundary deaths in the canonical order: the battery phase across
	// clusters (ascending), then the fault phase.
	for _, cause := range []string{"battery", "fault"} {
		for _, r := range ordered {
			for _, d := range r.Deaths {
				if d.Cause != cause {
					continue
				}
				if d.Epoch != epoch || d.Cluster != r.Row.Cluster {
					return nil, fmt.Errorf("field: %w: death of sensor %d attributed to cluster %d epoch %d in cluster %d's epoch-%d result",
						ErrShardMismatch, d.Sensor, d.Cluster, d.Epoch, r.Row.Cluster, epoch)
				}
				rep.Deaths = append(rep.Deaths, d)
			}
		}
	}

	// Everything is validated: commit. The boundary deltas keep the
	// runtime's dead/battery books in step with the fleet — that is what
	// makes its Snapshot the resume point and the source of handoffs. A
	// cluster this runtime runs later catches its topology up in
	// runCluster.
	var lifetime time.Duration
	for _, r := range ordered {
		rt.sum.OfferedTotal += r.Row.Offered
		rt.sum.DeliveredTotal += r.Row.Delivered
		rt.sum.RetriesTotal += r.Row.Retries
		rep.Stranded += r.Stranded
		if r.Changed {
			rep.Replans++
		}
		if r.HasLifetime && (lifetime == 0 || r.Lifetime < lifetime) {
			lifetime = r.Lifetime
		}
		rt.applyDelta(r.Delta)
		if s := &rt.slots[r.Row.Cluster]; s.epoch < epoch+1 {
			s.epoch = epoch + 1
		}
	}
	if epoch == 0 && rt.cfg.BatteryJoules > 0 {
		rt.sum.Lifetime = lifetime
	}
	rt.epoch++
	rt.sum.Epochs = rt.epoch
	rt.sum.Deaths = append(rt.sum.Deaths, rep.Deaths...)
	rt.sum.StrandedFinal = rep.Stranded
	rt.sum.ReplansTotal += rep.Replans
	if rt.sum.FirstDeath == 0 && len(rep.Deaths) > 0 {
		rt.sum.FirstDeath = time.Duration(rt.epoch*rt.cfg.epochCycles()) * rt.cfg.Params.Cycle
	}
	rt.sum.Reports = append(rt.sum.Reports, rep)
	if o != nil {
		emitEpoch(&rep, ordered, o)
	}
	return &rep, nil
}

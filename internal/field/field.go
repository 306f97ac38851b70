// Package field is the multi-cluster field runtime: it promotes the
// whole-deployment simulation from a sequential helper loop into a
// first-class epoch engine. The field advances in lockstep epochs. In an
// epoch every cluster runs its duty cycles and then its share of the
// epoch boundary, where a deterministic, seed-derived churn engine
// injects faults (battery depletion through real energy accounting,
// relay death, shadowing shifts through radio.Medium.Refresh) and the
// affected clusters re-plan, so stranded sensors drop out while the
// field keeps delivering for survivors — the paper's Fig. 7(c)
// longitudinal story extended to whole fields.
//
// There is one engine. RunShardEpoch runs a set of clusters on a pool
// bounded by exp.Options.Workers and returns one ClusterResult each;
// MergeEpoch folds a full set of results into the EpochReport, the
// Summary and the field_* metrics. RunEpoch is RunShardEpoch over every
// cluster followed by MergeEpoch; a distributed run (internal/dist) calls
// RunShardEpoch on several worker processes and MergeEpoch on the
// coordinator. The Section V-G channel coloring enters only through the
// cycle arithmetic (cluster.TokenRotationCycle, cluster.ColoredCycle), so
// the order clusters execute in affects no result.
//
// A cluster's boundary state is its dead and battery books. Churn,
// MergeEpoch, AdoptClusterDelta and Resume write deaths to the dead book
// only; the cluster's topology catches up to the book in one place,
// syncDeaths (one topo.Cluster.MarkFailedBatch), the same way its links
// catch up to the shadow revision in refreshTo.
//
// The runtime is deterministic by construction: an epoch is a closed
// unit. Cluster runtimes are rebuilt at each epoch boundary from
// (seed, epoch, cluster), every random draw is a pure hash of those
// coordinates, each cluster owns its state (including its view of the
// shadowing environment), and aggregation happens single-threaded in
// cluster-index order after the pool's barrier. A run with Workers=1 and
// Workers=8 therefore produces byte-identical summaries, and the
// epoch-boundary Snapshot is sufficient state: serializing it, rebuilding
// the field and resuming produces the same final summary as the
// uninterrupted run.
package field

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/topo"
)

// Churn configures the epoch-boundary fault engine. The zero value
// injects nothing (batteries still deplete when Config.BatteryJoules is
// set — depletion is accounting, not injection).
type Churn struct {
	// FaultRate is the per-cluster, per-epoch probability that one live
	// sensor dies abruptly at the epoch boundary (hardware failure of a
	// relay, as opposed to the gradual battery depletion the energy
	// accounting produces). The victim is drawn uniformly from the
	// cluster's reachable sensors.
	FaultRate float64
	// ShadowSigmaDB, when positive, shifts the radio environment every
	// ShadowEvery epochs: a new deterministic per-link shadowing table
	// (radio.HashShadow) is installed on every cluster's copy of the
	// propagation model and its link powers are refreshed. It requires the
	// topology Config's Prop to be a *radio.LogDistance; with any other
	// model shadow churn is silently inert (two-ray has no shadowing
	// hook).
	ShadowSigmaDB float64
	// ShadowEvery is the period of shadow shifts in epochs; 0 disables
	// them even when ShadowSigmaDB is set.
	ShadowEvery int
	// Seed decorrelates fault draws from the workload/loss randomness;
	// 0 falls back to the cluster Params seed.
	Seed int64
}

// Config describes one field simulation.
type Config struct {
	// Topo carries the per-cluster radio and range parameters; sensor
	// counts come from the field's Voronoi cells, not Topo.Sensors.
	Topo topo.Config
	// Params are the shared cluster runtime parameters. Params.Seed is
	// the base seed every epoch-level seed derives from.
	Params cluster.Params
	// InterferenceRange is the sensor-to-sensor distance below which two
	// clusters are considered adjacent for channel coloring.
	InterferenceRange float64
	// BatteryJoules sizes each sensor's battery. Positive values enable
	// real depletion accounting (sensors die when their battery empties)
	// and the steady-state Lifetime estimate; zero or negative runs on
	// mains (no depletion, no lifetime).
	BatteryJoules float64
	// EpochCycles is the number of duty cycles each live cluster runs
	// per epoch; 0 means 1.
	EpochCycles int
	// Epochs is how many epochs Run executes; 0 means 1.
	Epochs int
	// Churn is the fault-injection configuration.
	Churn Churn
	// OnEpoch, when non-nil, is invoked once per completed epoch with
	// that epoch's report, from the goroutine calling MergeEpoch (directly
	// or through RunEpoch). The report is the same value appended to the
	// Summary; callbacks must not retain it past the call if they mutate
	// it. The hook is observational only — it cannot influence the run,
	// so the determinism contract is unaffected.
	OnEpoch func(*EpochReport)
}

// epochCycles resolves the per-epoch cycle count.
func (c Config) epochCycles() int {
	if c.EpochCycles < 1 {
		return 1
	}
	return c.EpochCycles
}

// epochs resolves the run length.
func (c Config) epochs() int {
	if c.Epochs < 1 {
		return 1
	}
	return c.Epochs
}

// energyModel resolves the model used for battery depletion and the
// Lifetime estimate: Params.Energy, or energy.DefaultModel() when that is
// zero.
func (c Config) energyModel() energy.Model {
	if !c.Params.Energy.IsZero() {
		return c.Params.Energy
	}
	return energy.DefaultModel()
}

// churnSeed resolves the fault-draw seed.
func (c Config) churnSeed() int64 {
	if c.Churn.Seed != 0 {
		return c.Churn.Seed
	}
	return c.Params.Seed
}

// Death records one sensor's demise at an epoch boundary.
type Death struct {
	// Epoch is the boundary index (the death happens after epoch Epoch).
	Epoch int `json:"epoch"`
	// Cluster is the field cluster index, Sensor the cluster-local node.
	Cluster int `json:"cluster"`
	Sensor  int `json:"sensor"`
	// Cause is "battery" (depletion) or "fault" (injected churn).
	Cause string `json:"cause"`
}

// ClusterEpoch is one cluster's compact per-epoch row.
type ClusterEpoch struct {
	Cluster int `json:"cluster"`
	Channel int `json:"channel"`
	// Live counts the reachable, powered sensors that took part.
	Live      int           `json:"live"`
	Offered   int           `json:"offered"`
	Delivered int           `json:"delivered"`
	Retries   int           `json:"retries"`
	MeanDuty  time.Duration `json:"mean_duty_ns"`
	Fits      bool          `json:"fits"`
}

// EpochReport summarizes one field epoch plus the churn boundary that
// closed it.
type EpochReport struct {
	Epoch int `json:"epoch"`
	// Clusters holds one row per cluster that ran, ascending by index.
	Clusters []ClusterEpoch `json:"clusters"`
	// TokenCycle and ColoredCycle are the minimum feasible field cycles
	// this epoch under single-token rotation and under the coloring.
	TokenCycle   time.Duration `json:"token_cycle_ns"`
	ColoredCycle time.Duration `json:"colored_cycle_ns"`
	// Deaths lists the sensors that died at this epoch's boundary.
	Deaths []Death `json:"deaths,omitempty"`
	// Stranded counts live sensors without a relaying path after the
	// boundary's re-planning.
	Stranded int `json:"stranded"`
	// Replans counts clusters whose connectivity actually changed at the
	// boundary (deaths, or a shadowing shift that flipped at least one
	// link) and will be re-planned for the next epoch. A shadow shift
	// that leaves a cluster's graph intact does not count — its cached
	// routing plan stays valid.
	Replans int `json:"replans"`
}

// Summary is the serializable whole-run aggregate — the object the
// determinism contract is stated over: identical for identical (field,
// Config) regardless of worker count, byte for byte.
type Summary struct {
	// Clusters counts the field's non-empty clusters; Channels the
	// colors the interference coloring used; Colors each non-empty
	// cluster's channel in head order.
	Clusters int   `json:"clusters"`
	Channels int   `json:"channels"`
	Colors   []int `json:"colors"`
	// Epochs completed and duty cycles per epoch.
	Epochs      int `json:"epochs"`
	EpochCycles int `json:"epoch_cycles"`
	// OfferedTotal/DeliveredTotal/RetriesTotal count data packets and
	// loss-induced re-polls across the whole run.
	OfferedTotal   int `json:"offered_total"`
	DeliveredTotal int `json:"delivered_total"`
	RetriesTotal   int `json:"retries_total"`
	// Deaths in boundary order (battery deaths before injected faults
	// within a boundary, ascending cluster then sensor).
	Deaths []Death `json:"deaths,omitempty"`
	// FirstDeath is the simulated time of the first death, 0 if none.
	FirstDeath time.Duration `json:"first_death_ns"`
	// Lifetime is the steady-state first-sensor-death estimate from the
	// initial epoch's mean profiles at Config.BatteryJoules — the metric
	// the paper's Fig. 7(c) plots. Zero when batteries are disabled.
	Lifetime time.Duration `json:"lifetime_ns"`
	// StrandedFinal counts live sensors with no relaying path at the end.
	StrandedFinal int `json:"stranded_final"`
	// ReplansTotal counts per-cluster re-planning events across the run.
	ReplansTotal int `json:"replans_total"`
	// Reports holds the per-epoch rows in order.
	Reports []EpochReport `json:"reports"`
}

// DeliveredFraction is the run-wide delivery ratio.
func (s *Summary) DeliveredFraction() float64 {
	if s.OfferedTotal == 0 {
		return 1
	}
	return float64(s.DeliveredTotal) / float64(s.OfferedTotal)
}

// MaxColoredCycle returns the largest per-epoch colored cycle — the duty
// the field's worst epoch demanded from its busiest channel.
func (s *Summary) MaxColoredCycle() time.Duration {
	var max time.Duration
	for i := range s.Reports {
		if c := s.Reports[i].ColoredCycle; c > max {
			max = c
		}
	}
	return max
}

// FitsCycle reports whether the field sustained the given cycle length
// under its channel coloring through every epoch.
func (s *Summary) FitsCycle(cycle time.Duration) bool {
	return s.MaxColoredCycle() <= cycle
}

// Runtime is a field simulation in progress. It is not safe for
// concurrent use; the parallelism lives inside RunShardEpoch.
type Runtime struct {
	f       *topo.Field
	cfg     Config
	em      energy.Model
	colors  []int // per field cluster
	indexes []int // non-empty clusters, ascending

	clusters  []*topo.Cluster // nil for empty clusters
	batteries [][]float64     // remaining joules, [k][v], nil when disabled
	dead      [][]bool        // [k][v]
	// epoch counts the epochs merged into the Summary.
	epoch int

	// slots[k] is cluster k's engine state. Only the goroutine running
	// cluster k touches slot k (and rows k of batteries and dead), so the
	// per-cluster pool needs no locking.
	slots []clusterSlot

	// MergeEpoch's indexing and cycle scratch, and RunShardEpoch's sorted
	// shard copy; single-threaded, reused across epochs.
	scratchSorted     []int
	scratchByK        []*ClusterResult
	scratchOrdered    []*ClusterResult
	scratchDuties     []time.Duration
	scratchDutyColors []int

	sum Summary
}

// clusterSlot is one cluster's engine state.
type clusterSlot struct {
	// prop is the cluster's own copy of the caller's log-distance model
	// (nil for other models): the shadow view installShadow writes.
	prop *radio.LogDistance
	// cache memoizes the cluster's routing plan across epoch boundaries,
	// keyed by (connectivity revision, demand fingerprint): quiet epochs
	// reuse the plan instead of re-solving the flow network. The plan is a
	// pure function of the key, so hits cannot perturb determinism.
	cache *routing.PlanCache
	// runner is the reusable runner-build state (the head's verdicts and
	// sector partition, kept while the cluster's radio and plan are
	// unchanged; routing workspace; polling buffers), created on first
	// use.
	runner *cluster.RunnerScratch
	// epoch counts the epochs the cluster has completed; rev is the
	// shadow revision its materialized links reflect.
	epoch, rev int
	// result is the cluster's last result, kept for idempotent re-query.
	result *ClusterResult
	// fingerprint caches the cluster's "%016x" geometry hash.
	fingerprint string
	// Churn and delta scratch.
	victims, reach []int
	// refreshed is the medium's refreshed-links counter at the last radio
	// emit, so radio_refresh_links_total advances by per-epoch deltas.
	refreshed uint64
}

// New builds a runtime over the field. The field's clusters are
// materialized once; churn mutates them in place across epochs. Each
// cluster gets its own copy of a log-distance propagation model, so the
// caller's model is never written.
func New(f *topo.Field, cfg Config) (*Runtime, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.InterferenceRange <= 0 {
		return nil, fmt.Errorf("field: non-positive interference range %g", cfg.InterferenceRange)
	}
	colors, channels := f.ChannelAssignment(cfg.InterferenceRange)
	rt := &Runtime{
		f:      f,
		cfg:    cfg,
		em:     cfg.energyModel(),
		colors: colors,
	}
	rt.clusters = make([]*topo.Cluster, len(f.Heads))
	rt.dead = make([][]bool, len(f.Heads))
	rt.slots = make([]clusterSlot, len(f.Heads))
	if cfg.BatteryJoules > 0 {
		rt.batteries = make([][]float64, len(f.Heads))
	}
	ld, _ := cfg.Topo.Prop.(*radio.LogDistance)
	for k := range f.Heads {
		tc := cfg.Topo
		var prop *radio.LogDistance
		if ld != nil {
			cp := *ld
			prop = &cp
			tc.Prop = prop
		}
		c, err := f.BuildCluster(k, tc)
		if err != nil {
			return nil, err
		}
		n := c.Sensors()
		if n == 0 {
			continue
		}
		rt.clusters[k] = c
		rt.indexes = append(rt.indexes, k)
		rt.dead[k] = make([]bool, n+1)
		rt.slots[k] = clusterSlot{prop: prop, cache: &routing.PlanCache{}}
		if rt.batteries != nil {
			rt.batteries[k] = make([]float64, n+1)
			for v := 1; v <= n; v++ {
				rt.batteries[k][v] = cfg.BatteryJoules
			}
		}
		rt.sum.Clusters++
		rt.sum.Colors = append(rt.sum.Colors, colors[k])
	}
	rt.sum.Channels = channels
	rt.sum.EpochCycles = cfg.epochCycles()
	return rt, nil
}

// Epoch returns the index of the next epoch to run (equivalently, the
// number of completed epochs).
func (rt *Runtime) Epoch() int { return rt.epoch }

// Summary returns the aggregate accumulated so far. The pointer stays
// valid (and keeps updating) across epochs.
func (rt *Runtime) Summary() *Summary { return &rt.sum }

// epochSeed derives cluster k's runtime seed for an epoch. Epoch 0 uses
// the base seed unmixed so a one-epoch run reproduces the legacy
// sequential helper exactly; later epochs decorrelate per (epoch, k).
func (rt *Runtime) epochSeed(epoch, k int) int64 {
	if epoch == 0 {
		return rt.cfg.Params.Seed
	}
	return int64(hashMix(uint64(rt.cfg.Params.Seed), uint64(epoch), uint64(k)+0x5eed))
}

// RunEpoch advances the field one epoch: every cluster runs as one local
// shard (RunShardEpoch, on at most o.WorkerCount() goroutines) and
// MergeEpoch folds the results into the Summary, exactly as a
// coordinator merges a distributed run. The returned report is the row
// appended to the Summary.
func (rt *Runtime) RunEpoch(o exp.Options) (*EpochReport, error) {
	results, err := rt.RunShardEpoch(o, rt.epoch, rt.indexes)
	if err != nil {
		return nil, err
	}
	return rt.MergeEpoch(o.Obs, results)
}

// sensorEnergy integrates one sensor's mean per-cycle profile over an
// epoch of the given cycles: its battery drain in joules.
func sensorEnergy(m energy.Model, p energy.CycleProfile, cycles int) float64 {
	perCycle := m.Energy(energy.Tx, p.InTx) + m.Energy(energy.Rx, p.InRx) +
		m.Energy(energy.Idle, p.InIdle) + m.Energy(energy.Sleep, p.SleepTime())
	return perCycle * float64(cycles)
}

// Run executes epochs until Config.Epochs is reached, checking the
// Options context between epochs (the issue-level cancellation contract:
// a canceled context stops the field at the next boundary and returns
// the context's error). Resumed runtimes continue from their snapshot
// epoch. The returned Summary is owned by the runtime.
func (rt *Runtime) Run(o exp.Options) (*Summary, error) {
	ctx := o.Context()
	for rt.epoch < rt.cfg.epochs() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, err := rt.RunEpoch(o); err != nil {
			return nil, err
		}
	}
	return &rt.sum, nil
}

// hashMix folds the parts into one splitmix64-style hash. Pure function
// of its arguments — the determinism contract rests on every random draw
// flowing through here with (seed, epoch, cluster, salt) coordinates.
func hashMix(parts ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		h ^= p
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// hashUnit maps a hash to [0, 1).
func hashUnit(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

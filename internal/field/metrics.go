package field

import (
	"repro/internal/obs"
	"repro/internal/routing"
)

// Field-level metric families, emitted into exp.Options.Obs on top of the
// per-cluster series every cluster.Runner already reports.
const (
	// MetricEpochs counts completed field epochs.
	MetricEpochs = "field_epochs_total"
	// MetricReplans counts per-cluster re-planning events (a cluster
	// whose topology changed at an epoch boundary and was re-planned).
	MetricReplans = "field_replans_total"
	// MetricStranded gauges live sensors with no relaying path to their
	// head after the latest boundary.
	MetricStranded = "field_stranded_sensors"
	// MetricDeaths counts sensor deaths, labeled cause="battery"|"fault".
	MetricDeaths = "field_deaths_total"
	// MetricClustersLive gauges clusters that ran in the latest epoch.
	MetricClustersLive = "field_clusters_live"
	// MetricPlanCacheHits counts epoch-boundary runner builds that reused
	// a cached routing plan; MetricPlanCacheMisses counts the ones that
	// had to re-solve the flow network (topology or demand changed, or
	// first epoch).
	MetricPlanCacheHits   = "field_plan_cache_hits_total"
	MetricPlanCacheMisses = "field_plan_cache_misses_total"
	// MetricRadioPairs gauges the directed link powers materialized across
	// all cluster mediums — the sparse radio store's memory footprint in
	// row entries (the dense predecessor held N^2 per cluster).
	MetricRadioPairs = "radio_pairs_materialized"
	// MetricRadioRefreshLinks counts link power recomputations across all
	// cluster mediums: row rebuilds from power changes/deaths plus
	// incremental shadowing refreshes.
	MetricRadioRefreshLinks = "radio_refresh_links_total"
	// MetricStageSeconds is a histogram of wall-clock seconds per epoch
	// stage, labeled stage=. The checkpoint stage (SeriesStageCheckpoint)
	// is timed by whoever persists the boundary.
	MetricStageSeconds = "field_stage_seconds"
)

// SeriesStageCheckpoint is the epoch-boundary checkpoint's stage series.
var SeriesStageCheckpoint = obs.Series(MetricStageSeconds, "stage", "checkpoint")

var (
	seriesDeathBattery = obs.Series(MetricDeaths, "cause", "battery")
	seriesDeathFault   = obs.Series(MetricDeaths, "cause", "fault")
)

// RegisterMetrics pre-registers the field series in reg with help text.
// As everywhere in the repo, emission works without it; registering makes
// the exposition self-describing.
func RegisterMetrics(reg *obs.Registry) {
	reg.Counter(MetricEpochs, "completed field epochs")
	reg.Counter(MetricReplans, "per-cluster re-planning events after churn")
	reg.Gauge(MetricStranded, "live sensors with no relaying path after the latest boundary")
	reg.Counter(seriesDeathBattery, "sensor deaths")
	reg.Counter(seriesDeathFault, "sensor deaths")
	reg.Gauge(MetricClustersLive, "clusters that ran in the latest epoch")
	reg.Counter(MetricPlanCacheHits, "epoch-boundary runner builds that reused a cached routing plan")
	reg.Counter(MetricPlanCacheMisses, "epoch-boundary runner builds that re-solved the routing flow network")
	reg.Gauge(MetricRadioPairs, "directed link powers materialized across all cluster radio mediums")
	reg.Counter(MetricRadioRefreshLinks, "link power recomputations across all cluster radio mediums")
	reg.Histogram(SeriesStageCheckpoint, "wall-clock seconds per epoch stage", nil)
}

// emitEpoch publishes one merged epoch: the field_* series and the
// planner's work as the clusters' results report it. MergeEpoch calls it
// for local and distributed runs alike, so both emit the same values.
func emitEpoch(rep *EpochReport, results []*ClusterResult, o obs.Observer) {
	o.Add(MetricEpochs, 1)
	o.Add(MetricReplans, float64(rep.Replans))
	o.Set(MetricStranded, float64(rep.Stranded))
	o.Set(MetricClustersLive, float64(len(rep.Clusters)))
	var hits, misses, solves, augments int
	for _, r := range results {
		if r.CacheHit {
			hits++
		} else {
			misses++
			solves += r.Solves
			augments += r.Augments
		}
	}
	o.Add(MetricPlanCacheHits, float64(hits))
	o.Add(MetricPlanCacheMisses, float64(misses))
	o.Add(routing.MetricSolves, float64(solves))
	o.Add(routing.MetricAugmentPaths, float64(augments))
	for _, d := range rep.Deaths {
		if d.Cause == "battery" {
			o.Add(seriesDeathBattery, 1)
		} else {
			o.Add(seriesDeathFault, 1)
		}
	}
}

// emitRadio publishes the radio_* series over the given clusters'
// mediums. RunShardEpoch calls it after its pool, in the process that
// holds the mediums.
func (rt *Runtime) emitRadio(ks []int, o obs.Observer) {
	var pairs, refreshed uint64
	for _, k := range ks {
		st := rt.clusters[k].Med.Stats()
		pairs += uint64(st.Pairs)
		refreshed += st.Refreshed - rt.slots[k].refreshed
		rt.slots[k].refreshed = st.Refreshed
	}
	o.Set(MetricRadioPairs, float64(pairs))
	o.Add(MetricRadioRefreshLinks, float64(refreshed))
}

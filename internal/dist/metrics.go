package dist

import "repro/internal/obs"

// Coordinator metric families.
const (
	// MetricWorkersLive gauges the workers the coordinator currently
	// considers live.
	MetricWorkersLive = "dist_workers_live"
	// MetricShardReassigns counts cluster shards reassigned to survivors
	// after a worker was written off.
	MetricShardReassigns = "dist_shard_reassigns_total"
	// MetricEpochBarrierSeconds is a histogram of wall-clock seconds per
	// distributed epoch barrier (assign → run → collect, excluding the
	// merge and commit).
	MetricEpochBarrierSeconds = "dist_epoch_barrier_seconds"
	// MetricWorkerEpochSeconds gauges one worker's wall-clock seconds for
	// its last shard call, labeled {worker="..."} via obs.Series.
	MetricWorkerEpochSeconds = "dist_epoch_seconds"
	// MetricShardLatencySkew gauges the fleet's latency imbalance: max/min
	// seconds-per-cluster over one barrier pass's calls (1 when a single
	// call succeeded). Placement does not react to it, so a sustained
	// skew means one straggler is pacing every barrier. This is the
	// series the default shard-latency alert rule watches.
	MetricShardLatencySkew = "dist_epoch_seconds_skew"
)

// RegisterMetrics pre-registers the dist series in reg with help text.
// Emission works without it; registering makes the exposition
// self-describing.
func RegisterMetrics(reg *obs.Registry) {
	reg.Gauge(MetricWorkersLive, "workers the coordinator considers live")
	reg.Counter(MetricShardReassigns, "cluster shards reassigned after worker loss")
	reg.Histogram(MetricEpochBarrierSeconds, "wall-clock seconds per distributed epoch barrier", nil)
	reg.Gauge(MetricWorkerEpochSeconds, "per-worker wall-clock seconds for the last shard call")
	reg.Gauge(MetricShardLatencySkew, "max/min seconds-per-cluster over one barrier pass's calls")
}

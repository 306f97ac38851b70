package routing

import "repro/internal/obs"

// Planner metric families. The routing package itself never emits (its
// entry points are pure functions); the field runtime adds each computed
// Plan's Solves/AugmentingPaths to these series after planning a cluster,
// and mhpolld serves them at /metrics.
const (
	// MetricSolves counts max-flow solves across all routing plans: one
	// cold solve per probed delta (see Plan.Solves).
	MetricSolves = "routing_solves_total"
	// MetricAugmentPaths counts augmenting paths pushed by the max-flow
	// solver across all routing plans.
	MetricAugmentPaths = "routing_augment_paths_total"
)

// RegisterMetrics pre-registers the routing series in reg with help text;
// as everywhere in the repo, emission works without it, registering makes
// the exposition self-describing.
func RegisterMetrics(reg *obs.Registry) {
	reg.Counter(MetricSolves, "max-flow solves by the routing delta search (one cold solve per probed delta)")
	reg.Counter(MetricAugmentPaths, "augmenting paths pushed by the routing max-flow solver")
}

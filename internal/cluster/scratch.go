package cluster

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/routing"
)

// RunnerScratch holds the reusable state of one cluster's runner across
// epoch rebuilds: the tested oracle (Reset instead of reallocated, its
// learned-verdict maps keeping their buckets), the routing workspace, the
// demand and group buffers, the two greedy polling scratches (ack and
// data phases run back to back and their stats are read side by side, so
// they cannot share one), and the ack-cover and data-request buffers.
//
// The field runtime keeps one scratch per cluster and passes it to every
// NewRunnerScratch rebuild of that cluster — scratch state is strictly
// per-cluster, so the field's concurrent shard workers never share one.
// A runner built with a scratch is valid until the next runner is built
// with the same scratch. Every runner runs on one: NewRunner gives each
// runner a zero-value scratch of its own. Traced runs use the same
// buffers, since Runner.Trace copies every event out of the schedule.
type RunnerScratch struct {
	oracle      *radio.TestedOracle
	ws          routing.Workspace
	demand      []int
	unreachable []int
	all         []int
	groups      [][]int
	ack, data   core.GreedyScratch
	dataReqs    []core.Request
	// ackRequests buffers: the set-cover inputs and outputs.
	indexOf map[int]int
	subsets []graph.Subset
	paths   [][]int
	ackReqs []core.Request
}

// appendSubset extends subsets by one entry, reusing the previous run's
// Elements backing array when growing within capacity, and returns the
// slice plus the (emptied) elements buffer for the caller to fill.
func appendSubset(subsets []graph.Subset) ([]graph.Subset, []int) {
	if n := len(subsets); n < cap(subsets) {
		subsets = subsets[:n+1]
		return subsets, subsets[n].Elements[:0]
	}
	return append(subsets, graph.Subset{}), nil
}

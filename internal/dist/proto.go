// Package dist is the distributed field runtime: a coordinator that
// partitions a field's clusters across worker processes by rendezvous
// hashing and drives them through lockstep epochs with an epoch-barrier
// protocol — assign, run, collect per-cluster results, commit. The field
// layer guarantees a cluster's trajectory is independent of which
// process runs it (field.Runtime.RunShardEpoch / MergeEpoch, the same
// engine field.Runtime.Run drives locally), so the coordinator's merged
// Summary, Snapshot and field_* metrics are identical to a
// single-process field.Run at any worker count; what this package adds
// is the protocol around that invariant: sessions, heartbeats, per-call
// timeouts, retry/backoff, and shard reassignment from the last
// committed boundary when a worker dies.
//
// The package deliberately knows nothing about job specs: a Builder
// callback turns opaque spec bytes into the (field, Config) pair, so the
// service layer can wire its FieldSpec without dist importing it.
package dist

import (
	"encoding/json"

	"repro/internal/field"
	"repro/internal/topo"
)

// Builder constructs the deployment a session simulates from opaque spec
// bytes. Coordinator and workers run the same builder over the same
// bytes and must land on identical (field, Config) pairs — the field
// fingerprint in OpenRequest verifies that they did. The field runtime
// writes to neither the field nor the propagation model (each cluster
// gets its own copy of the model), so a builder may return shared ones.
type Builder func(spec json.RawMessage) (*topo.Field, field.Config, error)

// OpenRequest registers a session on a worker: build the deployment from
// Spec and hold a field runtime for it. Opens are idempotent —
// re-opening an existing session with the same field hash is a no-op, so
// a coordinator can blindly re-open after a lost response.
type OpenRequest struct {
	// Session identifies the run; all later calls carry it.
	Session string `json:"session"`
	// FieldHash is the coordinator's deployment fingerprint
	// (field.Runtime.FieldHash). The worker rejects the open if its own
	// build disagrees — the two processes would silently simulate
	// different worlds.
	FieldHash string `json:"field_hash"`
	// Spec is the opaque deployment spec, interpreted by the Builder.
	Spec json.RawMessage `json:"spec"`
}

// EpochRequest asks a worker to advance its shard through one epoch.
type EpochRequest struct {
	Session string `json:"session"`
	// Epoch to run; every listed cluster must be exactly there (a cluster
	// one epoch ahead answers from its result cache instead).
	Epoch int `json:"epoch"`
	// Clusters is the shard: the cluster indices this worker owns for the
	// epoch.
	Clusters []int `json:"clusters"`
	// AdoptDeltas carry boundary states to install before running — how
	// a reassigned cluster's state reaches its new worker. Each is a
	// self-contained delta against the initial build state
	// (field.Runtime.EncodeClusterDelta).
	AdoptDeltas []field.ClusterDelta `json:"adopt_deltas,omitempty"`
}

// EpochResponse is the worker's half of the barrier: one result per
// requested cluster, ascending by cluster index.
type EpochResponse struct {
	Results []field.ClusterResult `json:"results"`
}

package field

// The delta codec: the wire encoding of one cluster's epoch-boundary
// state — who is dead and how much battery remains. Together with the
// (field, Config) pair it is sufficient for any process to reconstruct
// the cluster and continue its trajectory; a checkpoint is one delta
// per cluster plus the Summary (snapshot.go). A delta is always the
// cluster's full state, encoded against the initial build state every
// process derives from the spec alone (nobody dead, every sensor at
// Config.BatteryJoules, the mains-powered head at zero). It is valid no
// matter what the receiver currently holds, so epoch results, adoption
// payloads and checkpoints share the same form.
//
// Dead sensors are gap-encoded (first index absolute, then ascending
// gaps); batteries ship as parallel (gap-encoded index, value) arrays
// listing only nodes whose level differs from the initial build. A
// cluster with no deaths and no drain is a header and two empty lists.
//
// Installing a delta writes only the cluster's dead and battery books;
// the cluster's topology catches up to the books in syncDeaths before it
// next runs, so a process that only merges never rebuilds a graph.
//
// Decoding validates structure before touching any runtime state and
// returns errors wrapping ErrDeltaCorrupt for malformed wire bytes,
// ErrShardMismatch / ErrShardEpoch for well-formed deltas that do not
// fit this field.

import (
	"errors"
	"fmt"
	"math"
)

// ErrDeltaCorrupt marks a structurally invalid ClusterDelta: a negative
// epoch, gap lists that are not ascending, battery index/value arrays of
// different lengths, out-of-range indices, non-finite levels. Wrapped;
// match with errors.Is.
var ErrDeltaCorrupt = errors.New("cluster delta corrupt")

// ClusterDelta is one cluster's full boundary state encoded against the
// initial build state. See the comment at the top of this file for the
// wire contract.
type ClusterDelta struct {
	// Cluster is the field cluster index. Fingerprint hashes the
	// cluster's geometry (topo.Field.ClusterFingerprint, "%016x"), so
	// state from a different deployment is rejected. Epoch is the number
	// of epochs completed at the encoded boundary.
	Cluster     int    `json:"cluster"`
	Fingerprint string `json:"fingerprint"`
	Epoch       int    `json:"epoch"`
	// DeadGaps gap-encodes the sensors dead in the encoded state: the
	// first entry is an absolute sensor index (>= 1), every later entry a
	// positive gap to the next.
	DeadGaps []int `json:"dead_gaps,omitempty"`
	// BatteryIdx/BatteryVals list the nodes whose battery level differs
	// from the initial build, as parallel arrays; BatteryIdx is
	// gap-encoded like DeadGaps but from node index 0 (the head).
	BatteryIdx  []int     `json:"battery_idx,omitempty"`
	BatteryVals []float64 `json:"battery_vals,omitempty"`
	// HasBatteries records whether the encoded state carries battery
	// accounting at all — a delta with no battery entries is otherwise
	// ambiguous between "no drain" and "mains-powered field".
	HasBatteries bool `json:"has_batteries,omitempty"`
}

// appendGaps gap-encodes the strictly ascending index list xs onto dst.
func appendGaps(dst, xs []int) []int {
	prev := 0
	for i, x := range xs {
		if i == 0 {
			dst = append(dst, x)
		} else {
			dst = append(dst, x-prev)
		}
		prev = x
	}
	return dst
}

// decodeGaps expands a gap list into absolute indices appended to dst.
// The first index must be at least lo, every gap positive, and no index
// may exceed hi; violations return ErrDeltaCorrupt.
func decodeGaps(dst, gaps []int, lo, hi int) ([]int, error) {
	cur := 0
	for i, g := range gaps {
		if i == 0 {
			if g < lo {
				return nil, fmt.Errorf("field: %w: first index %d below %d", ErrDeltaCorrupt, g, lo)
			}
			cur = g
		} else {
			if g < 1 {
				return nil, fmt.Errorf("field: %w: non-positive gap %d", ErrDeltaCorrupt, g)
			}
			cur += g
		}
		if cur > hi {
			return nil, fmt.Errorf("field: %w: index %d beyond %d", ErrDeltaCorrupt, cur, hi)
		}
		dst = append(dst, cur)
	}
	return dst, nil
}

// validate checks the delta's structure against a cluster of n sensors
// with the given battery mode, without consulting any state. Structural
// violations wrap ErrDeltaCorrupt; a battery-mode disagreement wraps
// ErrShardMismatch.
func (d *ClusterDelta) validate(n int, batteries bool) error {
	if d.Epoch < 0 {
		return fmt.Errorf("field: %w: negative epoch %d", ErrDeltaCorrupt, d.Epoch)
	}
	if len(d.BatteryIdx) != len(d.BatteryVals) {
		return fmt.Errorf("field: %w: %d battery indices, %d values", ErrDeltaCorrupt, len(d.BatteryIdx), len(d.BatteryVals))
	}
	if d.HasBatteries != batteries {
		return fmt.Errorf("field: %w: delta for cluster %d disagrees on battery accounting", ErrShardMismatch, d.Cluster)
	}
	if !d.HasBatteries && len(d.BatteryIdx) > 0 {
		return fmt.Errorf("field: %w: battery entries without battery accounting", ErrDeltaCorrupt)
	}
	for _, b := range d.BatteryVals {
		if math.IsNaN(b) || math.IsInf(b, 0) || b < 0 {
			return fmt.Errorf("field: %w: battery level %v", ErrDeltaCorrupt, b)
		}
	}
	// Dry-run the gap lists so malformed wire bytes surface before any
	// state is touched.
	if _, err := decodeGaps(nil, d.DeadGaps, 1, n); err != nil {
		return err
	}
	if _, err := decodeGaps(nil, d.BatteryIdx, 0, n); err != nil {
		return err
	}
	return nil
}

// EncodeClusterDelta encodes cluster k's current boundary state: the
// self-contained form every result and adoption payload ships, decodable
// by any process holding the same spec regardless of its current state.
// The delta's slices are freshly allocated.
func (rt *Runtime) EncodeClusterDelta(k int) (ClusterDelta, error) {
	if !rt.has(k) {
		return ClusterDelta{}, fmt.Errorf("field: %w: no cluster %d", ErrShardMismatch, k)
	}
	s := &rt.slots[k]
	d := ClusterDelta{
		Cluster:      k,
		Fingerprint:  rt.fingerprint(k),
		Epoch:        s.epoch,
		HasBatteries: rt.batteries != nil,
	}
	dead := s.victims[:0]
	for v, isDead := range rt.dead[k] {
		if isDead {
			dead = append(dead, v)
		}
	}
	s.victims = dead
	d.DeadGaps = appendGaps(nil, dead)
	if rt.batteries != nil {
		prev := 0
		for v, b := range rt.batteries[k] {
			if b == rt.initialBattery(v) {
				continue
			}
			if len(d.BatteryIdx) == 0 {
				d.BatteryIdx = append(d.BatteryIdx, v)
			} else {
				d.BatteryIdx = append(d.BatteryIdx, v-prev)
			}
			prev = v
			d.BatteryVals = append(d.BatteryVals, b)
		}
	}
	return d, nil
}

// initialBattery is node v's battery at build time: the configured
// capacity for sensors, zero for the mains-powered head.
func (rt *Runtime) initialBattery(v int) float64 {
	if v == 0 {
		return 0
	}
	return rt.cfg.BatteryJoules
}

// checkDelta validates d against this field without touching any state:
// a known cluster, a well-formed payload of the right battery mode, and
// the cluster's fingerprint.
func (rt *Runtime) checkDelta(d *ClusterDelta) error {
	k := d.Cluster
	if !rt.has(k) {
		return fmt.Errorf("field: %w: delta for unknown cluster %d", ErrShardMismatch, k)
	}
	if err := d.validate(rt.clusters[k].Sensors(), rt.batteries != nil); err != nil {
		return err
	}
	if want := rt.fingerprint(k); d.Fingerprint != want {
		return fmt.Errorf("field: %w: cluster %d is %s here, delta carries %s",
			ErrShardMismatch, k, want, d.Fingerprint)
	}
	return nil
}

// applyDelta installs a checked delta into its cluster's dead and
// battery books, and nothing else: the cluster's topology catches up in
// syncDeaths when it next runs. Deaths only accumulate, so the delta's
// dead list is a superset of the books' whenever its epoch is not behind
// them. The batteries are reset to the initial build and the delta's
// levels applied, which re-applying a runtime's own delta leaves exact.
func (rt *Runtime) applyDelta(d *ClusterDelta) {
	k := d.Cluster
	s := &rt.slots[k]
	dead, _ := decodeGaps(s.reach[:0], d.DeadGaps, 1, rt.clusters[k].Sensors())
	s.reach = dead
	for _, v := range dead {
		rt.dead[k][v] = true
	}
	if d.HasBatteries {
		for v := range rt.batteries[k] {
			rt.batteries[k][v] = rt.initialBattery(v)
		}
		cur := 0
		for i, g := range d.BatteryIdx {
			if i == 0 {
				cur = g
			} else {
				cur += g
			}
			rt.batteries[k][cur] = d.BatteryVals[i]
		}
	}
}

// AdoptClusterDelta installs a cluster's boundary state on this runtime:
// a handed-off cluster, or one cluster of a checkpoint Resume restores.
// The delta must fit this field and move the cluster's epoch forward or
// keep it; adopting the state a cluster is already at is a no-op
// (determinism makes the states equal), so re-sends are safe. The
// cluster's topology catches up to the adopted deaths and the epoch's
// shadow revision when it next runs.
func (rt *Runtime) AdoptClusterDelta(d ClusterDelta) error {
	if err := rt.checkDelta(&d); err != nil {
		return err
	}
	k := d.Cluster
	s := &rt.slots[k]
	if d.Epoch < s.epoch {
		return fmt.Errorf("field: %w: cluster %d has completed %d epochs, cannot rewind to %d",
			ErrShardEpoch, k, s.epoch, d.Epoch)
	}
	rt.applyDelta(&d)
	s.epoch = d.Epoch
	s.result = nil
	return nil
}

package field

// The delta codec: the wire encoding of one cluster's epoch-boundary
// state — who is dead and how much battery remains. Together with the
// (field, Config) pair it is sufficient for any process to reconstruct
// the cluster and continue its trajectory. A delta names a base boundary
// both ends can reconstruct and carries only what moved since:
//
//   - Base == -1 is the initial build state, derivable from the spec
//     alone (nobody dead, every sensor at Config.BatteryJoules, the
//     mains-powered head at zero). Self-contained: it is the cluster's
//     full state, the form adoption payloads use, valid no matter what
//     the receiver currently holds.
//   - Base == e is the committed boundary after epoch e. Usable only
//     when the receiver is known to hold that boundary — the result
//     path into MergeEpoch, where the barrier protocol guarantees the
//     merging runtime's books sit exactly at the boundary the epoch
//     started from.
//
// Dead sensors are gap-encoded (first index absolute, then ascending
// gaps); batteries ship as parallel (gap-encoded index, value) arrays
// listing only nodes whose level differs from the base. A quiet cluster
// — no deaths, no drain — is a header and two empty lists.
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

// ErrDeltaCorrupt marks a structurally invalid ClusterDelta: gap lists
// that are not ascending, battery index/value arrays of different
// lengths, out-of-range indices, non-finite levels. Wrapped; match with
// errors.Is.
var ErrDeltaCorrupt = errors.New("cluster delta corrupt")

// DeltaBaseInitial is the Base value naming the initial build state.
const DeltaBaseInitial = -1

// ClusterDelta is one cluster's boundary state encoded against a base
// boundary. See the comment at the top of this file for the wire
// contract.
type ClusterDelta struct {
	// Cluster is the field cluster index. Fingerprint hashes the
	// cluster's geometry (topo.Field.ClusterFingerprint, "%016x"), so
	// state from a different deployment is rejected. Epoch is the number
	// of epochs completed at the encoded boundary.
	Cluster     int    `json:"cluster"`
	Fingerprint string `json:"fingerprint"`
	Epoch       int    `json:"epoch"`
	// Base is the boundary the delta is relative to: DeltaBaseInitial
	// (-1) for the initial build state, or a committed epoch number.
	Base int `json:"base"`
	// DeadGaps gap-encodes the sensors dead in the encoded state but not
	// in the base: the first entry is an absolute sensor index (>= 1),
	// every later entry a positive gap to the next.
	DeadGaps []int `json:"dead_gaps,omitempty"`
	// BatteryIdx/BatteryVals list the nodes whose battery level differs
	// from the base, as parallel arrays; BatteryIdx is gap-encoded like
	// DeadGaps but from node index 0 (the head).
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
	if d.Base < DeltaBaseInitial {
		return fmt.Errorf("field: %w: base %d", ErrDeltaCorrupt, d.Base)
	}
	if d.Epoch < 0 || (d.Base >= 0 && d.Epoch < d.Base) {
		return fmt.Errorf("field: %w: epoch %d before base %d", ErrDeltaCorrupt, d.Epoch, d.Base)
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

// appendBatteryDiff appends the nodes whose level in cur differs from
// base(v) to d's battery arrays, gap-encoded from node 0.
func (d *ClusterDelta) appendBatteryDiff(cur []float64, base func(v int) float64) {
	prev := 0
	for v, b := range cur {
		if b == base(v) {
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

// EncodeClusterDelta encodes cluster k's current boundary state against
// the initial build state (Base == DeltaBaseInitial) — the
// self-contained form adoption payloads ship, decodable by any process
// holding the same spec regardless of its current state.
func (rt *Runtime) EncodeClusterDelta(k int) (ClusterDelta, error) {
	if !rt.has(k) {
		return ClusterDelta{}, fmt.Errorf("field: %w: no cluster %d", ErrShardMismatch, k)
	}
	d := ClusterDelta{
		Cluster:      k,
		Fingerprint:  rt.fingerprint(k),
		Epoch:        rt.slots[k].epoch,
		Base:         DeltaBaseInitial,
		HasBatteries: rt.batteries != nil,
	}
	dead := rt.slots[k].victims[:0]
	for v, isDead := range rt.dead[k] {
		if isDead {
			dead = append(dead, v)
		}
	}
	rt.slots[k].victims = dead
	d.DeadGaps = appendGaps(nil, dead)
	if rt.batteries != nil {
		d.appendBatteryDiff(rt.batteries[k], rt.initialBattery)
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
// battery books. The books must sit at the delta's base: the initial
// build state's deaths are a subset of anyone's, and an incremental
// delta is applied only over its own base boundary.
func (rt *Runtime) applyDelta(d *ClusterDelta) {
	k := d.Cluster
	s := &rt.slots[k]
	decoded, _ := decodeGaps(s.reach[:0], d.DeadGaps, 1, rt.clusters[k].Sensors())
	s.reach = decoded
	victims := s.victims[:0]
	for _, v := range decoded {
		if !rt.dead[k][v] {
			victims = append(victims, v)
		}
	}
	s.victims = victims
	if len(victims) > 0 {
		rt.killBatch(k, victims)
	}
	if d.HasBatteries {
		if d.Base == DeltaBaseInitial {
			for v := range rt.batteries[k] {
				rt.batteries[k][v] = rt.initialBattery(v)
			}
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

// AdoptClusterDelta installs a handed-off cluster state on this runtime:
// the per-cluster miniature of Resume. The delta must be self-contained
// (Base == DeltaBaseInitial), fit this field, and move the cluster's
// epoch forward or keep it; adopting the state a cluster is already at
// is a no-op (determinism makes the states equal), so re-sends are safe.
// The cluster's links catch up to the epoch's shadow revision when it
// next runs.
func (rt *Runtime) AdoptClusterDelta(d ClusterDelta) error {
	if err := rt.checkDelta(&d); err != nil {
		return err
	}
	k := d.Cluster
	if d.Base != DeltaBaseInitial {
		return fmt.Errorf("field: %w: cluster %d handoff has base %d, adoption needs the initial base",
			ErrShardEpoch, k, d.Base)
	}
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

// boundaryDelta builds the result delta for cluster k's epoch: new
// deaths (the boundary's Death records, sorted ascending) and battery
// levels that moved against the pre-churn copy in preBatteries.
func (rt *Runtime) boundaryDelta(k, epoch int, deaths []Death, preBatteries []float64) *ClusterDelta {
	d := &ClusterDelta{
		Cluster:      k,
		Fingerprint:  rt.fingerprint(k),
		Epoch:        epoch + 1,
		Base:         epoch,
		HasBatteries: rt.batteries != nil,
	}
	s := &rt.slots[k]
	victims := s.victims[:0]
	for _, death := range deaths {
		victims = append(victims, death.Sensor)
	}
	// Battery deaths arrive ascending with the (at most one) fault death
	// appended; a single insertion pass restores ascending order.
	for i := 1; i < len(victims); i++ {
		v, j := victims[i], i
		for j > 0 && victims[j-1] > v {
			victims[j] = victims[j-1]
			j--
		}
		victims[j] = v
	}
	d.DeadGaps = appendGaps(nil, victims)
	s.victims = victims
	if rt.batteries != nil {
		d.appendBatteryDiff(rt.batteries[k], func(v int) float64 { return preBatteries[v] })
	}
	return d
}

package field

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/topo"
)

// SnapshotVersion is the checkpoint format version. Bump it whenever the
// Snapshot layout or the runtime semantics it freezes change.
const SnapshotVersion = 1

// Sentinel errors for snapshot decoding and resumption. They are wrapped
// (never returned bare), so match with errors.Is.
var (
	// ErrSnapshotCorrupt marks a snapshot that does not decode: truncated
	// files, invalid JSON, or an empty input.
	ErrSnapshotCorrupt = errors.New("snapshot corrupt")
	// ErrSnapshotVersion marks a snapshot whose format version differs
	// from SnapshotVersion.
	ErrSnapshotVersion = errors.New("snapshot version mismatch")
	// ErrSnapshotMismatch marks a snapshot that decodes but does not fit
	// the field/Config it is being resumed under (wrong deployment
	// fingerprint, cluster count, or battery mode).
	ErrSnapshotMismatch = errors.New("snapshot does not match field")
)

// Snapshot is an epoch-boundary checkpoint: together with the (field,
// Config) pair it was taken from, it is sufficient to resume the run.
// Epochs are closed units — cluster runtimes are rebuilt at boundaries
// from (seed, epoch, cluster) and every churn draw is a pure hash — so
// the boundary state is exactly: who is dead, how much battery remains,
// which shadow revision is installed, and the aggregate so far.
type Snapshot struct {
	Version int `json:"version"`
	// FieldHash fingerprints the deployment (topo.Field.Fingerprint);
	// Resume rejects a different field.
	FieldHash string `json:"field_hash"`
	// Epoch is the number of completed epochs.
	Epoch int `json:"epoch"`
	// ShadowRev is the current shadowing-table revision (0 = pristine).
	ShadowRev int `json:"shadow_rev"`
	// Batteries holds remaining joules per cluster per node (index 0 is
	// the mains-powered head), nil when depletion is disabled.
	Batteries [][]float64 `json:"batteries,omitempty"`
	// Dead lists dead sensors per cluster, ascending.
	Dead [][]int `json:"dead"`
	// Summary is the aggregate accumulated through Epoch.
	Summary *Summary `json:"summary"`
}

// Snapshot captures the runtime's current epoch-boundary state. Call it
// between epochs (after New, after any RunEpoch, or after a canceled
// Run); the snapshot deep-copies, so later epochs do not mutate it.
func (rt *Runtime) Snapshot() *Snapshot {
	s := &Snapshot{
		Version:   SnapshotVersion,
		FieldHash: rt.FieldHash(),
		Epoch:     rt.epoch,
		ShadowRev: rt.revForEpoch(rt.epoch),
		Dead:      make([][]int, len(rt.clusters)),
	}
	if rt.batteries != nil {
		s.Batteries = make([][]float64, len(rt.batteries))
		for k, b := range rt.batteries {
			s.Batteries[k] = append([]float64(nil), b...)
		}
	}
	for k, d := range rt.dead {
		dead := []int{}
		for v, isDead := range d {
			if isDead {
				dead = append(dead, v)
			}
		}
		s.Dead[k] = dead
	}
	sum := rt.sum
	sum.Colors = append([]int(nil), rt.sum.Colors...)
	sum.Deaths = append([]Death(nil), rt.sum.Deaths...)
	sum.Reports = append([]EpochReport(nil), rt.sum.Reports...)
	s.Summary = &sum
	return s
}

// WriteJSON serializes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteFile atomically persists the snapshot at path: the JSON is written
// to a temporary file in the same directory, synced, and renamed over the
// destination. A crash mid-write therefore leaves either the previous
// checkpoint or the new one, never a torn half-checkpoint (ReadSnapshot
// would report the torn file as ErrSnapshotCorrupt, and the run's crash
// recovery would lose the boundary — atomicity keeps the guarantee
// structural instead).
func (s *Snapshot) WriteFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("field: snapshot temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := s.WriteJSON(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("field: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("field: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("field: close snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("field: install snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot parses a snapshot written by WriteJSON. Decode failures —
// invalid JSON, a truncated file, empty input — come back wrapped as
// ErrSnapshotCorrupt; a decodable snapshot of another format version as
// ErrSnapshotVersion. Both match with errors.Is.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		// io.EOF (empty input) and io.ErrUnexpectedEOF (truncation) are
		// corruption here just like a syntax error: the checkpoint is
		// unusable either way.
		return nil, fmt.Errorf("field: %w: %v", ErrSnapshotCorrupt, err)
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("field: %w: got %d, want %d", ErrSnapshotVersion, s.Version, SnapshotVersion)
	}
	return &s, nil
}

// ReadSnapshotFile reads a snapshot from path (see ReadSnapshot for the
// error contract; os.Open failures are returned unwrapped so callers can
// distinguish a missing checkpoint from a corrupt one via os.IsNotExist /
// errors.Is(err, os.ErrNotExist)).
func ReadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// Resume reconstructs a runtime at the snapshot's epoch boundary. The
// caller supplies the same field and Config the snapshot was taken under
// (the snapshot stores derived state only); the field is validated by
// fingerprint. Run on the resumed runtime continues to Config.Epochs and
// produces the same final Summary as an uninterrupted run.
func Resume(f *topo.Field, cfg Config, s *Snapshot) (*Runtime, error) {
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("field: %w: got %d, want %d", ErrSnapshotVersion, s.Version, SnapshotVersion)
	}
	if got := fmt.Sprintf("%016x", f.Fingerprint()); got != s.FieldHash {
		return nil, fmt.Errorf("field: %w: snapshot is from field %s, resuming %s", ErrSnapshotMismatch, s.FieldHash, got)
	}
	rt, err := New(f, cfg)
	if err != nil {
		return nil, err
	}
	if len(s.Dead) != len(rt.clusters) {
		return nil, fmt.Errorf("field: %w: snapshot has %d clusters, field has %d", ErrSnapshotMismatch, len(s.Dead), len(rt.clusters))
	}
	if (s.Batteries != nil) != (rt.batteries != nil) {
		return nil, fmt.Errorf("field: %w: snapshot and config disagree on battery accounting", ErrSnapshotMismatch)
	}
	if s.Batteries != nil && len(s.Batteries) != len(rt.clusters) {
		return nil, fmt.Errorf("field: %w: snapshot has batteries for %d clusters, field has %d",
			ErrSnapshotMismatch, len(s.Batteries), len(rt.clusters))
	}
	if s.Epoch < 0 || s.ShadowRev != rt.revForEpoch(s.Epoch) {
		return nil, fmt.Errorf("field: %w: snapshot at epoch %d with shadow revision %d, config implies %d",
			ErrSnapshotMismatch, s.Epoch, s.ShadowRev, rt.revForEpoch(max(s.Epoch, 0)))
	}
	// Re-apply deaths (order-independent: each is a power zeroing plus a
	// rebuild) and restore batteries. Each cluster's links catch up to the
	// epoch's shadow revision when it next runs.
	for k, dead := range s.Dead {
		for _, v := range dead {
			if rt.clusters[k] == nil || v < 1 || v > rt.clusters[k].Sensors() {
				return nil, fmt.Errorf("field: %w: snapshot kills sensor %d of cluster %d, out of range", ErrSnapshotMismatch, v, k)
			}
			rt.kill(k, v)
		}
	}
	for k := range rt.batteries {
		if len(s.Batteries[k]) != len(rt.batteries[k]) {
			return nil, fmt.Errorf("field: %w: snapshot batteries for cluster %d: %d nodes, want %d",
				ErrSnapshotMismatch, k, len(s.Batteries[k]), len(rt.batteries[k]))
		}
		copy(rt.batteries[k], s.Batteries[k])
	}
	rt.epoch = s.Epoch
	for k := range rt.slots {
		rt.slots[k].epoch = s.Epoch
	}
	if s.Summary != nil {
		rt.sum = *s.Summary
	}
	return rt, nil
}

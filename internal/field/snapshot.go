package field

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/topo"
)

// SnapshotVersion is the checkpoint format version. Bump it whenever the
// Snapshot layout, the on-disk checkpoint format or the runtime semantics
// it freezes change. Version 2 splits the file checkpoint into a boundary
// record and an epoch-report journal (see WriteFile).
const SnapshotVersion = 2

// Sentinel errors for snapshot decoding and resumption. They are wrapped
// (never returned bare), so match with errors.Is.
var (
	// ErrSnapshotCorrupt marks a snapshot that does not decode: truncated
	// files, invalid JSON, an empty input, or a boundary record and
	// journal that disagree.
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

// WriteJSON serializes the whole snapshot, reports included, as indented
// JSON: the stream form ReadSnapshot reads.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
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

// The file checkpoint is two files, so that an epoch boundary costs the
// same at epoch 400 as at epoch 4:
//
//   - the boundary record at path, rewritten atomically at every
//     boundary: a checkpointHeader, then the compact snapshot without
//     Summary.Reports and Summary.Deaths;
//   - the journal at journalPath(path), append-only: one frame per
//     EpochReport in epoch order, each a 4-byte big-endian payload
//     length, the payload's 4-byte big-endian CRC-32C and the compact
//     JSON report.
//
// The header's JournalBytes is the committed length of the journal.
// Bytes past it are a torn or uncommitted append and are ignored; the
// next WriteFile truncates them away.

// checkpointHeader is the first JSON value of a boundary record.
type checkpointHeader struct {
	Version      int   `json:"version"`
	Epoch        int   `json:"epoch"`
	JournalBytes int64 `json:"journal_bytes"`
}

// frameHeaderLen is a journal frame's length and checksum prefix.
const frameHeaderLen = 8

// maxHeaderLen bounds how much of the previous boundary record WriteFile
// reads to find where the journal left off; a version-2 header is far
// shorter.
const maxHeaderLen = 256

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// journalPath names the epoch-report journal of the checkpoint at path.
func journalPath(path string) string { return path + ".journal" }

// RemoveCheckpoint deletes the checkpoint at path: the boundary record
// and its journal. Files that do not exist are not an error.
func RemoveCheckpoint(path string) error {
	for _, p := range []string{path, journalPath(path)} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

// WriteFile persists the snapshot as the checkpoint at path, in an order
// that leaves a readable checkpoint after a crash at any instant:
//
//  1. read the previous boundary's header; when it is valid, of this
//     version, at or before s.Epoch and within the journal, the journal's
//     first header.Epoch reports are already committed;
//  2. truncate the journal to that committed length and append the
//     reports from there up to s.Epoch;
//  3. sync the journal;
//  4. install the new boundary record: temp file, sync, rename.
//
// Until step 4 the old boundary stays in place, and its JournalBytes
// covers only frames it committed. The cost is the new reports plus a
// boundary record whose size does not grow with the epoch count.
// Successive snapshots written to one path must come from one run: the
// committed reports are reused, not compared. Writing an earlier epoch
// than the installed one starts the journal over, so a crash mid-write
// then leaves a checkpoint that reads as corrupt; a run only does that
// after restarting from an unusable checkpoint.
func (s *Snapshot) WriteFile(path string) error {
	var reports []EpochReport
	if s.Summary != nil {
		reports = s.Summary.Reports
	}
	if s.Epoch < 0 || len(reports) != s.Epoch {
		return fmt.Errorf("field: snapshot at epoch %d holds %d epoch reports", s.Epoch, len(reports))
	}
	jf, err := os.OpenFile(journalPath(path), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("field: open journal: %w", err)
	}
	defer jf.Close()
	from, off := committedPrefix(path, jf, s.Epoch)
	if err := jf.Truncate(off); err != nil {
		return fmt.Errorf("field: truncate journal: %w", err)
	}
	var buf []byte
	for i := from; i < s.Epoch; i++ {
		if buf, err = appendFrame(buf, &reports[i]); err != nil {
			return fmt.Errorf("field: encode epoch report %d: %w", i, err)
		}
	}
	if _, err := jf.WriteAt(buf, off); err != nil {
		return fmt.Errorf("field: append journal: %w", err)
	}
	if err := jf.Sync(); err != nil {
		return fmt.Errorf("field: sync journal: %w", err)
	}
	if err := jf.Close(); err != nil {
		return fmt.Errorf("field: close journal: %w", err)
	}
	rec, err := boundaryRecord(s, off+int64(len(buf)))
	if err != nil {
		return fmt.Errorf("field: encode boundary: %w", err)
	}
	return installFile(path, rec)
}

// committedPrefix returns how many reports, in how many journal bytes,
// the boundary record at path has already committed to jf — or 0, 0 when
// that record is missing, unreadable, of another version, past epoch, or
// claims more journal than exists.
func committedPrefix(path string, jf *os.File, epoch int) (int, int64) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	var h checkpointHeader
	if err := json.NewDecoder(io.LimitReader(f, maxHeaderLen)).Decode(&h); err != nil ||
		h.Version != SnapshotVersion || h.Epoch < 0 || h.Epoch > epoch || h.JournalBytes < 0 {
		return 0, 0
	}
	st, err := jf.Stat()
	if err != nil || h.JournalBytes > st.Size() {
		return 0, 0
	}
	return h.Epoch, h.JournalBytes
}

// appendFrame appends one journal frame holding rep to buf.
func appendFrame(buf []byte, rep *EpochReport) ([]byte, error) {
	payload, err := json.Marshal(rep)
	if err != nil {
		return buf, err
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...), nil
}

// boundaryRecord encodes the header and the snapshot minus the history
// the journal holds.
func boundaryRecord(s *Snapshot, journalBytes int64) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(checkpointHeader{Version: SnapshotVersion, Epoch: s.Epoch, JournalBytes: journalBytes}); err != nil {
		return nil, err
	}
	b := *s
	if s.Summary != nil {
		sum := *s.Summary
		sum.Reports, sum.Deaths = nil, nil
		b.Summary = &sum
	}
	if err := enc.Encode(&b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// installFile atomically replaces path with data: the bytes go to a
// temporary file in the same directory, are synced, and the file is
// renamed over the destination, so a crash leaves either the old record
// or the new one, never a torn one.
func installFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("field: snapshot temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
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

// ReadSnapshotFile reads the checkpoint WriteFile left at path and
// rebuilds the whole snapshot: Summary.Reports from the journal's
// committed frames, Summary.Deaths as their Deaths in order — the way
// MergeEpoch builds it. A boundary record of another version comes back
// as ErrSnapshotVersion; any other inconsistency — an undecodable record,
// a journal shorter than the record commits, a frame whose length or
// checksum is off, reports not numbered 0..Epoch−1 — as
// ErrSnapshotCorrupt. Journal bytes past the committed length are
// ignored. os.Open failures on path are returned unwrapped so callers can
// tell a missing checkpoint from a corrupt one via
// errors.Is(err, os.ErrNotExist).
func ReadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var h checkpointHeader
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("field: %w: header: %v", ErrSnapshotCorrupt, err)
	}
	if h.Version != SnapshotVersion {
		return nil, fmt.Errorf("field: %w: got %d, want %d", ErrSnapshotVersion, h.Version, SnapshotVersion)
	}
	var s Snapshot
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("field: %w: boundary: %v", ErrSnapshotCorrupt, err)
	}
	if s.Version != h.Version || s.Epoch != h.Epoch || h.Epoch < 0 || h.JournalBytes < 0 {
		return nil, fmt.Errorf("field: %w: boundary at version %d epoch %d under header version %d epoch %d, journal %d bytes",
			ErrSnapshotCorrupt, s.Version, s.Epoch, h.Version, h.Epoch, h.JournalBytes)
	}
	reports, err := readJournal(journalPath(path), h)
	if err != nil {
		return nil, err
	}
	if s.Summary == nil {
		if len(reports) > 0 {
			return nil, fmt.Errorf("field: %w: journal holds %d reports, boundary has no summary", ErrSnapshotCorrupt, len(reports))
		}
		return &s, nil
	}
	s.Summary.Reports, s.Summary.Deaths = reports, nil
	for i := range reports {
		s.Summary.Deaths = append(s.Summary.Deaths, reports[i].Deaths...)
	}
	return &s, nil
}

// readJournal decodes the h.JournalBytes committed bytes of the journal
// at path into exactly h.Epoch reports numbered 0..h.Epoch−1.
func readJournal(path string, h checkpointHeader) ([]EpochReport, error) {
	jf, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("field: %w: journal: %v", ErrSnapshotCorrupt, err)
	}
	defer jf.Close()
	st, err := jf.Stat()
	if err != nil {
		return nil, fmt.Errorf("field: %w: journal: %v", ErrSnapshotCorrupt, err)
	}
	if h.JournalBytes > st.Size() {
		return nil, fmt.Errorf("field: %w: boundary commits %d journal bytes, journal has %d",
			ErrSnapshotCorrupt, h.JournalBytes, st.Size())
	}
	data := make([]byte, h.JournalBytes)
	if _, err := io.ReadFull(jf, data); err != nil {
		return nil, fmt.Errorf("field: %w: journal: %v", ErrSnapshotCorrupt, err)
	}
	var reports []EpochReport
	for off := 0; off < len(data); {
		if len(data)-off < frameHeaderLen {
			return nil, fmt.Errorf("field: %w: torn frame header at journal byte %d", ErrSnapshotCorrupt, off)
		}
		n := binary.BigEndian.Uint32(data[off:])
		sum := binary.BigEndian.Uint32(data[off+4:])
		off += frameHeaderLen
		if uint64(n) > uint64(len(data)-off) {
			return nil, fmt.Errorf("field: %w: frame of %d bytes at journal byte %d overruns the committed journal",
				ErrSnapshotCorrupt, n, off-frameHeaderLen)
		}
		payload := data[off : off+int(n)]
		off += int(n)
		if crc32.Checksum(payload, castagnoli) != sum {
			return nil, fmt.Errorf("field: %w: checksum mismatch in epoch report %d", ErrSnapshotCorrupt, len(reports))
		}
		var rep EpochReport
		if err := json.Unmarshal(payload, &rep); err != nil {
			return nil, fmt.Errorf("field: %w: epoch report %d: %v", ErrSnapshotCorrupt, len(reports), err)
		}
		if rep.Epoch != len(reports) {
			return nil, fmt.Errorf("field: %w: journal frame %d holds epoch %d", ErrSnapshotCorrupt, len(reports), rep.Epoch)
		}
		reports = append(reports, rep)
	}
	if len(reports) != h.Epoch {
		return nil, fmt.Errorf("field: %w: journal holds %d reports, boundary is at epoch %d", ErrSnapshotCorrupt, len(reports), h.Epoch)
	}
	return reports, nil
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
	// Restore the dead and battery books. Each cluster's topology catches
	// up to its deaths and to the epoch's shadow revision when it next
	// runs.
	for k, dead := range s.Dead {
		for _, v := range dead {
			if rt.clusters[k] == nil || v < 1 || v > rt.clusters[k].Sensors() {
				return nil, fmt.Errorf("field: %w: snapshot kills sensor %d of cluster %d, out of range", ErrSnapshotMismatch, v, k)
			}
			rt.dead[k][v] = true
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

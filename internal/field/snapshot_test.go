package field

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exp"
)

// snapshotFixture runs one epoch of the churn field and returns the
// runtime plus its serialized snapshot bytes.
func snapshotFixture(t testing.TB) (*Runtime, []byte) {
	t.Helper()
	f, cfg := buildChurnField()
	rt, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunEpoch(exp.Options{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rt.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return rt, buf.Bytes()
}

func TestReadSnapshotCorruptSentinels(t *testing.T) {
	_, good := snapshotFixture(t)

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrSnapshotCorrupt},
		{"garbage", []byte("not json at all"), ErrSnapshotCorrupt},
		{"truncated", good[:len(good)/2], ErrSnapshotCorrupt},
		{"wrong type", []byte(`{"version":"one"}`), ErrSnapshotCorrupt},
		{"future version", []byte(`{"version":99}`), ErrSnapshotVersion},
		{"zero version", []byte(`{}`), ErrSnapshotVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadSnapshot(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("ReadSnapshot accepted a bad snapshot")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}

	// The good bytes still round-trip.
	if _, err := ReadSnapshot(bytes.NewReader(good)); err != nil {
		t.Fatalf("good snapshot rejected: %v", err)
	}
}

// resumeRejections are snapshot edits Resume must refuse, each at one
// check: the cluster coverage, the entry order and epoch, and through
// adoption the delta's structure, fingerprint and battery mode. want is
// the sentinel beside ErrSnapshotMismatch, msg a fragment of the error.
var resumeRejections = []struct {
	name string
	mut  func(s *Snapshot)
	want error
	msg  string
}{
	{"missing cluster", func(s *Snapshot) { s.Clusters = s.Clusters[1:] }, ErrSnapshotMismatch, "clusters, field has"},
	{"clusters out of order", func(s *Snapshot) { s.Clusters[0], s.Clusters[1] = s.Clusters[1], s.Clusters[0] }, ErrSnapshotMismatch, "want cluster"},
	{"delta at the wrong epoch", func(s *Snapshot) { s.Clusters[0].Epoch++ }, ErrSnapshotMismatch, "want cluster"},
	{"corrupt gaps", func(s *Snapshot) { s.Clusters[0].DeadGaps = []int{1, 0} }, ErrDeltaCorrupt, "non-positive gap"},
	{"wrong fingerprint", func(s *Snapshot) { s.Clusters[0].Fingerprint = "00000000deadbeef" }, ErrShardMismatch, "delta carries"},
	{"battery mode disagreement", func(s *Snapshot) {
		s.Clusters[0].HasBatteries = false
		s.Clusters[0].BatteryIdx, s.Clusters[0].BatteryVals = nil, nil
	}, ErrShardMismatch, "battery accounting"},
}

// rejectedSnapshot returns raw, decoded, with one resumeRejections edit.
func rejectedSnapshot(t testing.TB, raw []byte, mut func(*Snapshot)) *Snapshot {
	t.Helper()
	snap, err := ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	mut(snap)
	return snap
}

func TestResumeMismatchSentinel(t *testing.T) {
	_, raw := snapshotFixture(t)
	snap, err := ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	f, cfg := buildChurnField()
	noBatt := cfg
	noBatt.BatteryJoules = 0
	if _, err := Resume(f, noBatt, snap); !errors.Is(err, ErrSnapshotMismatch) || !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("battery disagreement error %v, want ErrSnapshotMismatch and ErrShardMismatch", err)
	}
	bad := *snap
	bad.Version = SnapshotVersion + 1
	if _, err := Resume(f, cfg, &bad); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("version error %v, want ErrSnapshotVersion", err)
	}
	short := *snap
	short.Clusters = short.Clusters[:1]
	if _, err := Resume(f, cfg, &short); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("too few clusters: error %v, want ErrSnapshotMismatch", err)
	}
	shifted := *snap
	shifted.ShadowRev++
	if _, err := Resume(f, cfg, &shifted); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("shadow revision off its epoch: error %v, want ErrSnapshotMismatch", err)
	}
	for _, tc := range resumeRejections {
		_, err := Resume(f, cfg, rejectedSnapshot(t, raw, tc.mut))
		if !errors.Is(err, ErrSnapshotMismatch) || !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: error %v, want ErrSnapshotMismatch and %v with %q", tc.name, err, tc.want, tc.msg)
		}
	}
}

// TestResumeRoundTripsDeltas: a resumed runtime encodes every cluster
// exactly as the snapshot it was resumed from stores it.
func TestResumeRoundTripsDeltas(t *testing.T) {
	f, cfg := buildChurnField()
	rt, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for rt.Epoch() < cfg.epochs() {
		if _, err := rt.RunEpoch(exp.Options{}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rt.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		snap, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Resume(f, cfg, snap)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range res.ClusterIndexes() {
			d, err := res.EncodeClusterDelta(k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(d, snap.Clusters[i]) {
				t.Fatalf("epoch %d cluster %d: resumed delta %+v, snapshot holds %+v", rt.Epoch(), k, d, snap.Clusters[i])
			}
		}
	}
}

// FuzzResume throws arbitrary bytes at the checkpoint path a daemon takes
// on restart: ReadSnapshot then Resume must return a runtime or a typed
// error, never panic.
func FuzzResume(f *testing.F) {
	_, good := snapshotFixture(f)
	f.Add(good)
	// Each edited seed gets past ReadSnapshot and reaches one of Resume's
	// refusals.
	for _, tc := range resumeRejections {
		var buf bytes.Buffer
		if err := rejectedSnapshot(f, good, tc.mut).WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	fld, cfg := buildChurnField()
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("untyped read error for %q: %v", data, err)
			}
			return
		}
		if _, err := Resume(fld, cfg, snap); err != nil &&
			!errors.Is(err, ErrSnapshotMismatch) && !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("untyped resume error for %q: %v", data, err)
		}
	})
}

// TestSnapshotWriteFileAtomic: WriteFile replaces stale content at path,
// leaves no temp debris, and what it wrote reads back as the very
// snapshot it was given — after the first epoch and again after several
// incremental ones, when each boundary only appends to the journal.
func TestSnapshotWriteFileAtomic(t *testing.T) {
	rt, _ := snapshotFixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.json")

	// Pre-existing stale content is replaced wholesale, not appended to
	// or left torn.
	if err := os.WriteFile(path, []byte("stale garbage that is much longer than the real checkpoint would ever"), 0o644); err != nil {
		t.Fatal(err)
	}
	checkRoundTrip := func() {
		t.Helper()
		if err := rt.Snapshot().WriteFile(path); err != nil {
			t.Fatal(err)
		}
		snap, err := ReadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := snap.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if want := snapshotJSON(t, rt); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("epoch %d: checkpoint reads back differently:\n got %d bytes\nwant %d bytes", rt.Epoch(), got.Len(), len(want))
		}
	}
	checkRoundTrip()
	for i := 0; i < 3; i++ {
		if _, err := rt.RunEpoch(exp.Options{}); err != nil {
			t.Fatal(err)
		}
		checkRoundTrip()
	}

	// No temp debris may survive a successful write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

func TestReadSnapshotFileMissing(t *testing.T) {
	_, err := ReadSnapshotFile(filepath.Join(t.TempDir(), "nope.json"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file error %v, want os.ErrNotExist", err)
	}
	if errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatal("missing file must not read as corruption")
	}
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

package field

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

func TestResumeMismatchSentinel(t *testing.T) {
	_, raw := snapshotFixture(t)
	snap, err := ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	f, cfg := buildChurnField()
	noBatt := cfg
	noBatt.BatteryJoules = 0
	if _, err := Resume(f, noBatt, snap); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("battery disagreement error %v, want ErrSnapshotMismatch", err)
	}
	bad := *snap
	bad.Version = SnapshotVersion + 1
	if _, err := Resume(f, cfg, &bad); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("version error %v, want ErrSnapshotVersion", err)
	}
	short := *snap
	short.Batteries = short.Batteries[:1]
	if _, err := Resume(f, cfg, &short); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("too few battery rows: error %v, want ErrSnapshotMismatch", err)
	}
	shifted := *snap
	shifted.ShadowRev++
	if _, err := Resume(f, cfg, &shifted); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("shadow revision off its epoch: error %v, want ErrSnapshotMismatch", err)
	}
}

// FuzzResume throws arbitrary bytes at the checkpoint path a daemon takes
// on restart: ReadSnapshot then Resume must return a runtime or a typed
// error, never panic.
func FuzzResume(f *testing.F) {
	_, good := snapshotFixture(f)
	f.Add(good)
	// The hand-written seeds carry the current version, so they get past
	// ReadSnapshot and reach Resume's battery, epoch and dead-sensor checks.
	v := fmt.Sprintf(`{"version":%d`, SnapshotVersion)
	f.Add([]byte(v + `}`))
	f.Add([]byte(v + `,"dead":[[],[],[],[],[]],"batteries":[[1]]}`))
	fld, cfg := buildChurnField()
	hash := fmt.Sprintf("%016x", fld.Fingerprint())
	f.Add([]byte(v + `,"field_hash":"` + hash + `","epoch":-3,"dead":[[],[],[],[],[]],"batteries":[]}`))
	f.Add([]byte(v + `,"field_hash":"` + hash + `","dead":[[9999],[],[],[],[]],"batteries":[[],[],[],[],[]]}`))
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

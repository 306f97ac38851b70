package field

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/exp"
)

// checkpointRun runs the battery-backed churn field for n epochs,
// writing the file checkpoint at path after every one.
func checkpointRun(t testing.TB, path string, n int) *Runtime {
	t.Helper()
	f, cfg := buildChurnField()
	rt, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for rt.Epoch() < n {
		if _, err := rt.RunEpoch(exp.Options{}); err != nil {
			t.Fatal(err)
		}
		if err := rt.Snapshot().WriteFile(path); err != nil {
			t.Fatal(err)
		}
	}
	return rt
}

// uninterruptedSummary is the churn field's final Summary bytes.
func uninterruptedSummary(t *testing.T) []byte {
	t.Helper()
	f, cfg := buildChurnField()
	rt, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.Run(exp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return summaryJSON(t, s)
}

// resumeToEnd reads the checkpoint at path, checks it is the snapshot
// want at epoch, then resumes and finishes the run, checkpointing every
// epoch as a daemon would, and returns the final Summary bytes. The last
// checkpoint must read back as that Summary too.
func resumeToEnd(t *testing.T, path string, epoch int, want []byte) []byte {
	t.Helper()
	snap, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != epoch {
		t.Fatalf("checkpoint reads back at epoch %d, want %d", snap.Epoch, epoch)
	}
	var got bytes.Buffer
	if err := snap.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("checkpoint does not read back as the committed snapshot")
	}
	f, cfg := buildChurnField()
	rt, err := Resume(f, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	for rt.Epoch() < cfg.Epochs {
		if _, err := rt.RunEpoch(exp.Options{}); err != nil {
			t.Fatal(err)
		}
		if err := rt.Snapshot().WriteFile(path); err != nil {
			t.Fatal(err)
		}
	}
	final, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := summaryJSON(t, rt.Summary())
	if !bytes.Equal(summaryJSON(t, final.Summary), sum) {
		t.Fatal("final checkpoint's summary differs from the run's")
	}
	return sum
}

// TestCheckpointUncommittedAppend: a crash after the journal append but
// before the boundary record is installed leaves the previous boundary,
// and the checkpoint reads back at the previous epoch.
func TestCheckpointUncommittedAppend(t *testing.T) {
	want := uninterruptedSummary(t)
	path := filepath.Join(t.TempDir(), "snapshot.json")
	rt := checkpointRun(t, path, 3)
	committed := snapshotJSON(t, rt)
	boundary, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.RunEpoch(exp.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Snapshot().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	// Put the epoch-3 boundary back: the journal now holds one frame
	// past what that boundary commits.
	if err := os.WriteFile(path, boundary, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := resumeToEnd(t, path, 3, committed); !bytes.Equal(got, want) {
		t.Fatalf("resumed run diverges from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestCheckpointTornTail: a partial frame past the committed length (a
// crash mid-append) is ignored on read and overwritten by the next write.
func TestCheckpointTornTail(t *testing.T) {
	want := uninterruptedSummary(t)
	path := filepath.Join(t.TempDir(), "snapshot.json")
	rt := checkpointRun(t, path, 3)
	committed := snapshotJSON(t, rt)
	frame, err := appendFrame(nil, &rt.Summary().Reports[2])
	if err != nil {
		t.Fatal(err)
	}
	jf, err := os.OpenFile(journalPath(path), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	if err := jf.Close(); err != nil {
		t.Fatal(err)
	}
	if got := resumeToEnd(t, path, 3, committed); !bytes.Equal(got, want) {
		t.Fatalf("resumed run diverges from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// setHeader rewrites the boundary record's header line at path.
func setHeader(t *testing.T, path string, h checkpointHeader) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(data, '\n')
	line := `{"version":` + strconv.Itoa(h.Version) + `,"epoch":` + strconv.Itoa(h.Epoch) +
		`,"journal_bytes":` + strconv.FormatInt(h.JournalBytes, 10) + `}`
	if err := os.WriteFile(path, append([]byte(line), data[nl:]...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCorruption: damage inside what the boundary commits is
// ErrSnapshotCorrupt, never a silently shorter history.
func TestCheckpointCorruption(t *testing.T) {
	cases := []struct {
		name   string
		damage func(t *testing.T, path string)
	}{
		{"journal truncated below committed length", func(t *testing.T, path string) {
			st, err := os.Stat(journalPath(path))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(journalPath(path), st.Size()-1); err != nil {
				t.Fatal(err)
			}
		}},
		{"journal missing", func(t *testing.T, path string) {
			if err := os.Remove(journalPath(path)); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped byte in a committed frame", func(t *testing.T, path string) {
			data, err := os.ReadFile(journalPath(path))
			if err != nil {
				t.Fatal(err)
			}
			// Turn the first frame's last digit into another digit: the
			// JSON stays valid, so only the checksum can notice.
			n := binary.BigEndian.Uint32(data)
			i := bytes.LastIndexAny(data[frameHeaderLen:frameHeaderLen+n], "0123456789")
			data[frameHeaderLen+i] ^= 1
			if err := os.WriteFile(journalPath(path), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"header commits fewer reports than its epoch", func(t *testing.T, path string) {
			data, err := os.ReadFile(journalPath(path))
			if err != nil {
				t.Fatal(err)
			}
			first := frameHeaderLen + int64(binary.BigEndian.Uint32(data))
			setHeader(t, path, checkpointHeader{Version: SnapshotVersion, Epoch: 2, JournalBytes: first})
		}},
		{"header epoch disagrees with the record", func(t *testing.T, path string) {
			st, err := os.Stat(journalPath(path))
			if err != nil {
				t.Fatal(err)
			}
			setHeader(t, path, checkpointHeader{Version: SnapshotVersion, Epoch: 3, JournalBytes: st.Size()})
		}},
		{"empty boundary", func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "snapshot.json")
			checkpointRun(t, path, 2)
			tc.damage(t, path)
			if _, err := ReadSnapshotFile(path); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("error %v, want ErrSnapshotCorrupt", err)
			}
		})
	}
}

// TestCheckpointHugeJournalClaim: a header claiming far more journal
// than exists is corruption, caught before anything of that size is
// allocated.
func TestCheckpointHugeJournalClaim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")
	checkpointRun(t, path, 2)
	setHeader(t, path, checkpointHeader{Version: SnapshotVersion, Epoch: 2, JournalBytes: 1 << 50})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadSnapshotFile(path)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("error %v, want ErrSnapshotCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reading the bad header allocated %d bytes", grew)
	}
}

// TestCheckpointVersion1: a version-1 checkpoint — one indented
// snapshot — reads as ErrSnapshotVersion, and WriteFile replaces it.
func TestCheckpointVersion1(t *testing.T) {
	rt, _ := snapshotFixture(t)
	path := filepath.Join(t.TempDir(), "snapshot.json")
	old := rt.Snapshot()
	old.Version = 1
	var v1 bytes.Buffer
	if err := old.WriteJSON(&v1); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshotFile(path); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("v1 checkpoint error %v, want ErrSnapshotVersion", err)
	}
	if err := rt.Snapshot().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if snap, err := ReadSnapshotFile(path); err != nil || snap.Epoch != rt.Epoch() {
		t.Fatalf("rewritten checkpoint: %v", err)
	}
}

// TestCheckpointFlat: the boundary record does not grow with the epoch
// count, and each boundary appends exactly one journal frame.
func TestCheckpointFlat(t *testing.T) {
	rt, _ := snapshotFixture(t)
	s := rt.Snapshot()
	tmpl := s.Summary.Reports[0]
	reports := make([]EpochReport, 400)
	for i := range reports {
		reports[i] = tmpl
		reports[i].Epoch = i
	}
	path := filepath.Join(t.TempDir(), "snapshot.json")
	size := func(p string) int64 {
		t.Helper()
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	write := func(n int) {
		t.Helper()
		s.Epoch = n
		s.Summary.Epochs = n
		s.Summary.Reports = reports[:n]
		if err := s.WriteFile(path); err != nil {
			t.Fatal(err)
		}
	}
	write(40)
	at40 := size(path)
	for n := 41; n <= 400; n++ {
		before := size(journalPath(path))
		write(n)
		frame, err := appendFrame(nil, &reports[n-1])
		if err != nil {
			t.Fatal(err)
		}
		if grew := size(journalPath(path)) - before; grew != int64(len(frame)) {
			t.Fatalf("epoch %d: journal grew %d bytes, want one %d-byte frame", n, grew, len(frame))
		}
	}
	if at400 := size(path); at400 > at40+64 || at400 < at40-64 {
		t.Fatalf("boundary record %d bytes at epoch 400, %d at epoch 40", at400, at40)
	}
	back, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Summary.Reports) != 400 {
		t.Fatalf("read back %d reports, want 400", len(back.Summary.Reports))
	}
}

// FuzzReadSnapshotFile throws arbitrary boundary and journal bytes at the
// file checkpoint: ReadSnapshotFile returns a snapshot or a corrupt or
// version error, never panics, and Resume on what it returns yields a
// runtime or a typed error.
func FuzzReadSnapshotFile(f *testing.F) {
	path := filepath.Join(f.TempDir(), "snapshot.json")
	checkpointRun(f, path, 2)
	boundary, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	journal, err := os.ReadFile(journalPath(path))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(boundary, journal)
	f.Add(boundary, journal[:len(journal)-3])
	f.Add(boundary, append(append([]byte(nil), journal...), journal[:11]...))
	f.Add(boundary, []byte(nil))
	f.Add([]byte(`{"version":1}`), journal)
	fld, cfg := buildChurnField()
	f.Fuzz(func(t *testing.T, boundary, journal []byte) {
		path := filepath.Join(t.TempDir(), "snapshot.json")
		if err := os.WriteFile(path, boundary, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(journalPath(path), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := ReadSnapshotFile(path)
		if err != nil {
			if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("untyped read error: %v", err)
			}
			return
		}
		if _, err := Resume(fld, cfg, snap); err != nil &&
			!errors.Is(err, ErrSnapshotMismatch) && !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("untyped resume error: %v", err)
		}
	})
}

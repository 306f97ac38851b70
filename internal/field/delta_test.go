package field

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/exp"
)

// TestDeltaRoundTrip is the codec's property test: after every epoch of
// a fully churned run (battery deaths, faults, shadow shifts), encoding
// each cluster's full state, sending it over the wire and
// adopting it must reproduce the cluster's dead and battery books
// exactly, and re-encoding the adoptee must give the same delta — the
// encoding is lossless.
func TestDeltaRoundTrip(t *testing.T) {
	w, adoptee := newShardWorker(t), newShardWorker(t)
	ks := w.ClusterIndexes()
	_, cfg := buildChurnField()
	for epoch := 0; epoch < cfg.epochs(); epoch++ {
		if _, err := w.RunShardEpoch(exp.Options{}, epoch, ks); err != nil {
			t.Fatal(err)
		}
		for _, k := range ks {
			d, err := w.EncodeClusterDelta(k)
			if err != nil {
				t.Fatal(err)
			}
			// The wire hop: marshal and unmarshal, as adoption payloads do.
			b, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			var wired ClusterDelta
			if err := json.Unmarshal(b, &wired); err != nil {
				t.Fatal(err)
			}
			if err := adoptee.AdoptClusterDelta(wired); err != nil {
				t.Fatalf("cluster %d epoch %d: adopt: %v", k, epoch, err)
			}
			if !reflect.DeepEqual(adoptee.dead[k], w.dead[k]) || !reflect.DeepEqual(adoptee.batteries[k], w.batteries[k]) {
				t.Fatalf("cluster %d epoch %d: adopted books diverge from the source", k, epoch)
			}
			again, err := adoptee.EncodeClusterDelta(k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again, d) {
				t.Fatalf("cluster %d epoch %d: round-trip mismatch\n got %+v\nwant %+v", k, epoch, again, d)
			}
		}
	}
}

// TestDeltaAdoptionEquivalence: a worker that adopts every cluster
// through the delta wire form must continue the run exactly as the
// source does — pinned by running the next epoch on both. The adoptee is
// either fresh or stale: one that ran epochs 0–1 itself, so its
// topology already holds some deaths and a shadow revision, and must
// catch up to the adopted books before it runs.
func TestDeltaAdoptionEquivalence(t *testing.T) {
	src := newShardWorker(t)
	ks := src.ClusterIndexes()
	for epoch := 0; epoch < 3; epoch++ {
		if _, err := src.RunShardEpoch(exp.Options{}, epoch, ks); err != nil {
			t.Fatal(err)
		}
	}
	var handoff []ClusterDelta
	for _, k := range ks {
		d, err := src.EncodeClusterDelta(k)
		if err != nil {
			t.Fatal(err)
		}
		handoff = append(handoff, d)
	}
	a, err := src.RunShardEpoch(exp.Options{}, 3, ks)
	if err != nil {
		t.Fatal(err)
	}
	// The planner's work depends on the plan cache's history, which
	// adoption does not ship; the plans themselves do not.
	mask := func(rs []ClusterResult) []byte {
		for i := range rs {
			rs[i].CacheHit, rs[i].Solves, rs[i].Augments = false, 0, 0
		}
		b, _ := json.Marshal(rs)
		return b
	}
	ja := mask(a)
	for _, ran := range []int{0, 2} {
		adoptee := newShardWorker(t)
		for epoch := 0; epoch < ran; epoch++ {
			if _, err := adoptee.RunShardEpoch(exp.Options{}, epoch, ks); err != nil {
				t.Fatal(err)
			}
		}
		for _, d := range handoff {
			if err := adoptee.AdoptClusterDelta(d); err != nil {
				t.Fatal(err)
			}
		}
		b, err := adoptee.RunShardEpoch(exp.Options{}, 3, ks)
		if err != nil {
			t.Fatal(err)
		}
		if jb := mask(b); string(ja) != string(jb) {
			t.Fatalf("adoptee that ran %d epochs diverges after adoption:\n source  %s\n adoptee %s", ran, ja, jb)
		}
	}
}

// TestMergeWritesOnlyBooks pins the coordinator's role: a runtime that
// only merges another runtime's results never touches a topology — every
// cluster's connectivity revision stays at its build value — while its
// dead and battery books follow the source's exactly.
func TestMergeWritesOnlyBooks(t *testing.T) {
	src, coord := newShardWorker(t), newShardWorker(t)
	ks := src.ClusterIndexes()
	built := make(map[int]uint64)
	for _, k := range ks {
		built[k] = coord.clusters[k].ConnectivityRev()
	}
	deaths := 0
	for epoch := 0; epoch < 3; epoch++ {
		res, err := src.RunShardEpoch(exp.Options{}, epoch, ks)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := coord.MergeEpoch(nil, res)
		if err != nil {
			t.Fatal(err)
		}
		deaths += len(rep.Deaths)
		for _, k := range ks {
			if got := coord.clusters[k].ConnectivityRev(); got != built[k] {
				t.Fatalf("epoch %d cluster %d: merge moved the connectivity revision %d -> %d", epoch, k, built[k], got)
			}
			if !reflect.DeepEqual(coord.dead[k], src.dead[k]) || !reflect.DeepEqual(coord.batteries[k], src.batteries[k]) {
				t.Fatalf("epoch %d cluster %d: merged books diverge from the source", epoch, k)
			}
		}
	}
	if deaths == 0 {
		t.Fatal("no deaths in 3 epochs: the test exercises nothing")
	}
}

// TestResumeTopologyCatchesUp: a runtime resumed from any epoch's
// Snapshot holds only books; once each cluster catches up the way
// runCluster does (syncDeaths, then refreshTo), every cluster's graph and
// levels equal the running runtime's.
func TestResumeTopologyCatchesUp(t *testing.T) {
	f, cfg := buildChurnField()
	rt, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for rt.Epoch() < cfg.epochs() {
		if _, err := rt.RunEpoch(exp.Options{}); err != nil {
			t.Fatal(err)
		}
		res, err := Resume(f, cfg, rt.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range rt.ClusterIndexes() {
			res.syncDeaths(k)
			res.refreshTo(k, res.revForEpoch(res.Epoch()))
			want, got := rt.clusters[k], res.clusters[k]
			if !got.G.Equal(want.G) || !reflect.DeepEqual(got.Level, want.Level) {
				t.Fatalf("epoch %d cluster %d: resumed topology diverges from the running one", rt.Epoch(), k)
			}
		}
	}
}

// TestDeltaEmptyFastPath: on a mains-powered field with no churn, the
// boundary delta is a bare header — no gap lists, no battery arrays.
func TestDeltaEmptyFastPath(t *testing.T) {
	f, cfg := buildChurnField()
	cfg.BatteryJoules = 0
	cfg.Churn = Churn{}
	w, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ks := w.ClusterIndexes()
	res, err := w.RunShardEpoch(exp.Options{}, 0, ks)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		d := r.Delta
		if d == nil {
			t.Fatalf("cluster %d result has no delta", r.Row.Cluster)
		}
		if len(d.DeadGaps) != 0 || len(d.BatteryIdx) != 0 || len(d.BatteryVals) != 0 || d.HasBatteries {
			t.Fatalf("quiet cluster %d delta is not empty: %+v", r.Row.Cluster, d)
		}
	}
}

// TestDeltaTypedErrors pins the decode-side refusals: structural garbage
// is ErrDeltaCorrupt, protocol misfits are ErrShardMismatch or
// ErrShardEpoch — never a panic, never an untyped error.
func TestDeltaTypedErrors(t *testing.T) {
	w := newShardWorker(t)
	k := w.ClusterIndexes()[0]
	good, err := w.EncodeClusterDelta(k)
	if err != nil {
		t.Fatal(err)
	}
	n := w.clusters[k].Sensors()

	cases := []struct {
		name string
		mut  func(d *ClusterDelta)
		want error
	}{
		{"unknown cluster", func(d *ClusterDelta) { d.Cluster = 10 * len(w.clusters) }, ErrShardMismatch},
		{"negative first gap", func(d *ClusterDelta) { d.DeadGaps = []int{-1} }, ErrDeltaCorrupt},
		{"zero dead index", func(d *ClusterDelta) { d.DeadGaps = []int{0} }, ErrDeltaCorrupt},
		{"non-positive gap", func(d *ClusterDelta) { d.DeadGaps = []int{1, 0} }, ErrDeltaCorrupt},
		{"index overflow", func(d *ClusterDelta) { d.DeadGaps = []int{n, 1} }, ErrDeltaCorrupt},
		{"battery arrays disagree", func(d *ClusterDelta) {
			d.BatteryIdx = []int{1}
			d.BatteryVals = nil
		}, ErrDeltaCorrupt},
		{"battery index overflow", func(d *ClusterDelta) {
			d.BatteryIdx = []int{n + 1}
			d.BatteryVals = []float64{1}
		}, ErrDeltaCorrupt},
		{"negative battery", func(d *ClusterDelta) {
			d.BatteryIdx = []int{1}
			d.BatteryVals = []float64{-5}
		}, ErrDeltaCorrupt},
		{"battery mode disagreement", func(d *ClusterDelta) {
			d.HasBatteries = false
			d.BatteryIdx, d.BatteryVals = nil, nil
		}, ErrShardMismatch},
		{"negative epoch", func(d *ClusterDelta) { d.Epoch = -1 }, ErrDeltaCorrupt},
		{"wrong fingerprint", func(d *ClusterDelta) { d.Fingerprint = "00000000deadbeef" }, ErrShardMismatch},
	}
	for _, tc := range cases {
		d := good
		d.DeadGaps = append([]int(nil), good.DeadGaps...)
		d.BatteryIdx = append([]int(nil), good.BatteryIdx...)
		d.BatteryVals = append([]float64(nil), good.BatteryVals...)
		tc.mut(&d)
		if err := w.AdoptClusterDelta(d); !errors.Is(err, tc.want) {
			t.Fatalf("%s: adopt err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// FuzzDeltaDecode throws arbitrary wire bytes at the adoption path: any
// input must either adopt cleanly into a fresh runtime or fail with one
// of the typed sentinels — no panics, no untyped errors.
func FuzzDeltaDecode(f *testing.F) {
	fld, cfg := buildChurnField()
	w, err := New(fld, cfg)
	if err != nil {
		f.Fatal(err)
	}
	ks := w.ClusterIndexes()
	if _, err := w.RunShardEpoch(exp.Options{}, 0, ks); err != nil {
		f.Fatal(err)
	}
	good, err := w.EncodeClusterDelta(ks[0])
	if err != nil {
		f.Fatal(err)
	}
	seed, _ := json.Marshal(good)
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"cluster":0,"dead_gaps":[0]}`))
	f.Add([]byte(`{"cluster":0,"battery_idx":[1,1],"battery_vals":[1]}`))
	f.Add([]byte(`{"cluster":-3,"epoch":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var d ClusterDelta
		if json.Unmarshal(data, &d) != nil {
			return // not this codec's layer
		}
		rt, err := New(fld, cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = rt.AdoptClusterDelta(d)
		if err != nil && !errors.Is(err, ErrDeltaCorrupt) &&
			!errors.Is(err, ErrShardMismatch) && !errors.Is(err, ErrShardEpoch) {
			t.Fatalf("untyped decode error for %q: %v", data, err)
		}
	})
}

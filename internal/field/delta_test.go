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
// each cluster against the initial base, sending it over the wire and
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

// TestDeltaAdoptionEquivalence: a fresh worker that adopts every cluster
// through the delta wire form must continue the run exactly as the
// source does — pinned by running the next epoch on both.
func TestDeltaAdoptionEquivalence(t *testing.T) {
	src := newShardWorker(t)
	ks := src.ClusterIndexes()
	for epoch := 0; epoch < 3; epoch++ {
		if _, err := src.RunShardEpoch(exp.Options{}, epoch, ks); err != nil {
			t.Fatal(err)
		}
	}
	viaDelta := newShardWorker(t)
	for _, k := range ks {
		d, err := src.EncodeClusterDelta(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := viaDelta.AdoptClusterDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	a, err := src.RunShardEpoch(exp.Options{}, 3, ks)
	if err != nil {
		t.Fatal(err)
	}
	b, err := viaDelta.RunShardEpoch(exp.Options{}, 3, ks)
	if err != nil {
		t.Fatal(err)
	}
	// The planner's work depends on the plan cache's history, which
	// adoption does not ship; the plans themselves do not.
	for i := range a {
		a[i].CacheHit, a[i].Solves, a[i].Augments = false, 0, 0
		b[i].CacheHit, b[i].Solves, b[i].Augments = false, 0, 0
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("epoch after adoption diverges:\n source  %s\n adoptee %s", ja, jb)
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
		{"base below initial", func(d *ClusterDelta) { d.Base = -2 }, ErrDeltaCorrupt},
		{"epoch before base", func(d *ClusterDelta) { d.Base = 3; d.Epoch = 1 }, ErrDeltaCorrupt},
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

	// An incremental (committed-boundary) delta cannot be adopted — it
	// needs the books at its base, so adoption is an epoch-protocol error.
	inc := good
	inc.Base = 1
	inc.Epoch = 2
	if err := w.AdoptClusterDelta(inc); !errors.Is(err, ErrShardEpoch) {
		t.Fatalf("adopt incremental delta: err = %v, want ErrShardEpoch", err)
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
	f.Add([]byte(`{"cluster":0,"base":-1,"dead_gaps":[0]}`))
	f.Add([]byte(`{"cluster":0,"base":-1,"battery_idx":[1,1],"battery_vals":[1]}`))
	f.Add([]byte(`{"cluster":-3,"base":7,"epoch":2}`))
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

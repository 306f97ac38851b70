package field

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/exp"
	"repro/internal/obs"
)

// newShardWorker builds a fresh worker-side runtime over its own copy of
// the churn fixture — exactly what a worker process reconstructs from
// the spec.
func newShardWorker(t *testing.T) *Runtime {
	t.Helper()
	f, cfg := buildChurnField()
	rt, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// runDistributed simulates the coordinator/worker protocol in-process:
// workers[w] owns the clusters partition assigns to it, every epoch each
// worker runs its shard and the coordinator merges, emitting into o
// when it is non-nil. Returns the coordinator runtime after cfg.Epochs
// epochs.
func runDistributed(t *testing.T, workers []*Runtime, partition func(k int) int, o obs.Observer) *Runtime {
	t.Helper()
	f, cfg := buildChurnField()
	coord, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([][]int, len(workers))
	for _, k := range coord.ClusterIndexes() {
		w := partition(k)
		shards[w] = append(shards[w], k)
	}
	for epoch := 0; epoch < cfg.epochs(); epoch++ {
		var results []ClusterResult
		for w, rt := range workers {
			res, err := rt.RunShardEpoch(exp.Options{}, epoch, shards[w])
			if err != nil {
				t.Fatalf("worker %d epoch %d: %v", w, epoch, err)
			}
			results = append(results, res...)
		}
		if _, err := coord.MergeEpoch(o, results); err != nil {
			t.Fatalf("merge epoch %d: %v", epoch, err)
		}
	}
	return coord
}

// TestShardMergeMatchesSingleProcess is the distributed determinism
// contract at the field layer: partition the clusters across 1, 2 and 3
// worker runtimes, drive lockstep epochs through RunShardEpoch, merge
// with MergeEpoch — the coordinator's Summary and Snapshot must be
// byte-identical to the single-process Run at every worker count.
func TestShardMergeMatchesSingleProcess(t *testing.T) {
	f, cfg := buildChurnField()
	ref, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ref.Run(exp.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantSum, wantSnap := summaryJSON(t, s), snapshotJSON(t, ref)

	for _, n := range []int{1, 2, 3} {
		workers := make([]*Runtime, n)
		for w := range workers {
			workers[w] = newShardWorker(t)
		}
		coord := runDistributed(t, workers, func(k int) int { return k % n }, nil)
		if got := summaryJSON(t, coord.Summary()); !bytes.Equal(got, wantSum) {
			t.Fatalf("workers=%d: merged summary diverges from single-process run:\n got %s\nwant %s", n, got, wantSum)
		}
		if got := snapshotJSON(t, coord); !bytes.Equal(got, wantSnap) {
			t.Fatalf("workers=%d: merged snapshot diverges from single-process run", n)
		}
	}
}

// TestShardHandoffMidRun pins the reassignment contract: worker 0 is
// lost after two epochs and a survivor adopts its clusters from the
// coordinator's merged state (EncodeClusterDelta → AdoptClusterDelta). The
// finished run must still match the single-process bytes — adoption is a
// per-cluster Resume, so the trajectory cannot depend on which process
// runs the cluster.
func TestShardHandoffMidRun(t *testing.T) {
	f, cfg := buildChurnField()
	ref, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ref.Run(exp.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantSum, wantSnap := summaryJSON(t, s), snapshotJSON(t, ref)

	f2, cfg2 := buildChurnField()
	coord, err := New(f2, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	workers := []*Runtime{newShardWorker(t), newShardWorker(t), newShardWorker(t)}
	shards := make([][]int, len(workers))
	for _, k := range coord.ClusterIndexes() {
		shards[k%3] = append(shards[k%3], k)
	}
	if len(shards[0]) == 0 {
		t.Fatal("fixture too small: worker 0 owns no clusters")
	}
	for epoch := 0; epoch < cfg2.epochs(); epoch++ {
		if epoch == 2 {
			// Worker 0 dies. Its clusters hand off to worker 1, seeded from
			// the coordinator's last committed boundary.
			for _, k := range shards[0] {
				d, err := coord.EncodeClusterDelta(k)
				if err != nil {
					t.Fatal(err)
				}
				if d.Epoch != 2 {
					t.Fatalf("coordinator exports cluster %d at epoch %d, want 2", k, d.Epoch)
				}
				if err := workers[1].AdoptClusterDelta(d); err != nil {
					t.Fatalf("adopt cluster %d: %v", k, err)
				}
			}
			shards[1] = append(shards[1], shards[0]...)
			shards[0] = nil
			workers[0] = nil
		}
		var results []ClusterResult
		for w, rt := range workers {
			if rt == nil {
				continue
			}
			res, err := rt.RunShardEpoch(exp.Options{}, epoch, shards[w])
			if err != nil {
				t.Fatalf("worker %d epoch %d: %v", w, epoch, err)
			}
			results = append(results, res...)
		}
		if _, err := coord.MergeEpoch(nil, results); err != nil {
			t.Fatalf("merge epoch %d: %v", epoch, err)
		}
	}
	if got := summaryJSON(t, coord.Summary()); !bytes.Equal(got, wantSum) {
		t.Fatalf("post-handoff summary diverges from single-process run:\n got %s\nwant %s", got, wantSum)
	}
	if got := snapshotJSON(t, coord); !bytes.Equal(got, wantSnap) {
		t.Fatal("post-handoff snapshot diverges from single-process run")
	}
}

// TestShardEmptyShard: a worker owning no clusters is a legal
// participant — it runs the epoch as a no-op and contributes nothing to
// the merge.
func TestShardEmptyShard(t *testing.T) {
	w := newShardWorker(t)
	res, err := w.RunShardEpoch(exp.Options{}, 0, nil)
	if err != nil {
		t.Fatalf("empty shard: %v", err)
	}
	if len(res) != 0 {
		t.Fatalf("empty shard produced %d results", len(res))
	}
}

// TestShardSingleClusterShards: the finest legal partition — every
// cluster its own worker — still merges to the single-process bytes.
func TestShardSingleClusterShards(t *testing.T) {
	f, cfg := buildChurnField()
	ref, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ref.Run(exp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := summaryJSON(t, s)

	ks := ref.ClusterIndexes()
	workers := make([]*Runtime, len(ks))
	for w := range workers {
		workers[w] = newShardWorker(t)
	}
	pos := make(map[int]int, len(ks))
	for i, k := range ks {
		pos[k] = i
	}
	coord := runDistributed(t, workers, func(k int) int { return pos[k] }, nil)
	if got := summaryJSON(t, coord.Summary()); !bytes.Equal(got, want) {
		t.Fatalf("single-cluster shards diverge from single-process run:\n got %s\nwant %s", got, want)
	}
}

// TestShardRejections pins the shard protocol's refusal cases: handoffs
// from another deployment, epoch rewinds, out-of-step runs, shards that
// fail validation, and merges with holes.
func TestShardRejections(t *testing.T) {
	w := newShardWorker(t)
	ks := w.ClusterIndexes()
	k, k2 := ks[0], ks[1]

	// Fingerprint mismatch: state for the right index from a different
	// deployment must be rejected.
	d, err := w.EncodeClusterDelta(k)
	if err != nil {
		t.Fatal(err)
	}
	bad := d
	bad.Fingerprint = "00000000deadbeef"
	if err := w.AdoptClusterDelta(bad); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("adopt with wrong fingerprint: err = %v, want ErrShardMismatch", err)
	}

	// Run one epoch, then check rewind and out-of-step rejections.
	if _, err := w.RunShardEpoch(exp.Options{}, 0, []int{k}); err != nil {
		t.Fatal(err)
	}
	rewind := d // epoch 0 state captured before the run
	if err := w.AdoptClusterDelta(rewind); !errors.Is(err, ErrShardEpoch) {
		t.Fatalf("adopt rewinding to epoch 0: err = %v, want ErrShardEpoch", err)
	}
	if _, err := w.RunShardEpoch(exp.Options{}, 5, []int{k}); !errors.Is(err, ErrShardEpoch) {
		t.Fatalf("run epoch 5 from epoch 1: err = %v, want ErrShardEpoch", err)
	}
	// Re-asking for the completed epoch is idempotent, not an error.
	again, err := w.RunShardEpoch(exp.Options{}, 0, []int{k})
	if err != nil {
		t.Fatalf("re-query of completed epoch: %v", err)
	}
	if len(again) != 1 || again[0].Epoch != 0 || again[0].Delta == nil || again[0].Delta.Epoch != 1 {
		t.Fatalf("re-query returned %+v, want cached epoch-0 result", again)
	}
	// The whole shard is validated before any cluster runs: a bad entry
	// anywhere leaves every listed cluster where it was.
	for _, shard := range [][]int{{k2, 10 * len(w.clusters)}, {k2, k2}, {k2, k}} {
		epoch := 0
		if shard[1] == k {
			epoch = 1 // k can run epoch 1, k2 cannot
		}
		if _, err := w.RunShardEpoch(exp.Options{}, epoch, shard); err == nil {
			t.Fatalf("shard %v at epoch %d accepted", shard, epoch)
		}
		if w.slots[k2].epoch != 0 || w.slots[k].epoch != 1 {
			t.Fatalf("rejected shard %v ran clusters: epochs %d/%d", shard, w.slots[k2].epoch, w.slots[k].epoch)
		}
	}

	// Merge coverage: dropping one cluster's result must be rejected.
	f, cfg := buildChurnField()
	coord, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := newShardWorker(t)
	results, err := full.RunShardEpoch(exp.Options{}, 0, full.ClusterIndexes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.MergeEpoch(nil, results[1:]); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("merge with a missing cluster: err = %v, want ErrShardMismatch", err)
	}
	if _, err := coord.MergeEpoch(nil, results); err != nil {
		t.Fatalf("full merge after rejected partial merge: %v", err)
	}
}

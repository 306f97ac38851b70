package dist

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/obs"
)

// TestCoordinatorSlowWorker: one worker of three stalls 250ms per shard
// call. Slowness is not death, so placement stays on the rendezvous
// owners and nothing is reassigned; the merged summary and snapshot stay
// byte-identical to the single-process run, and the per-worker
// dist_epoch_seconds gauges plus a skew above 1 report the straggler.
func TestCoordinatorSlowWorker(t *testing.T) {
	wantSum, wantSnap := referenceRun(t)
	cfg, lt := testConfig(3)
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	cfg.Obs = reg.Observer()
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Stall whichever worker rendezvous loads most, so the injected
	// latency actually lands on owned clusters.
	f, fc, err := testBuilder(nil)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := field.New(f, fc)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	slow := cfg.Workers[0]
	for _, k := range probe.ClusterIndexes() {
		w := Owner(k, cfg.Workers)
		counts[w]++
		if counts[w] > counts[slow] {
			slow = w
		}
	}
	lt.Delay(slow, 250*time.Millisecond)
	s, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := coordSummaryJSON(t, s); !bytes.Equal(got, wantSum) {
		t.Fatalf("slow-worker summary diverges from single-process run:\n got %s\nwant %s", got, wantSum)
	}
	if got := coordSnapshotJSON(t, co); !bytes.Equal(got, wantSnap) {
		t.Fatal("slow-worker snapshot diverges from single-process run")
	}

	var reassigns, skew float64
	perWorker := 0
	for _, m := range reg.Snapshot() {
		switch {
		case m.Name == MetricShardReassigns:
			reassigns = m.Value
		case m.Name == MetricShardLatencySkew:
			skew = m.Value
		case strings.HasPrefix(m.Name, MetricWorkerEpochSeconds+"{"):
			perWorker++
		}
	}
	if reassigns != 0 {
		t.Fatalf("a slow but live worker lost %g clusters to reassignment", reassigns)
	}
	if perWorker == 0 {
		t.Fatal("no per-worker dist_epoch_seconds series emitted")
	}
	if skew <= 1 {
		t.Fatalf("skew gauge %g with a 250ms straggler, want > 1", skew)
	}
}

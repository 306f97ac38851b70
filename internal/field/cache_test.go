package field

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/obs"
)

// buildQuietField is buildChurnField with every churn family disarmed and
// batteries disabled: nothing can change topology or demand between
// epochs, so every epoch after the first must be a pure cache hit.
func buildQuietField() (*Runtime, error) {
	f, cfg := buildChurnField()
	cfg.Churn = Churn{}
	cfg.BatteryJoules = 0
	return New(f, cfg)
}

// cacheTotals sums hit/miss counters over all non-empty clusters.
func cacheTotals(rt *Runtime) (hits, misses uint64, clusters int) {
	for k, c := range rt.clusters {
		if c == nil {
			continue
		}
		pc := rt.slots[k].cache
		hits += pc.Hits
		misses += pc.Misses
		clusters++
	}
	return hits, misses, clusters
}

// TestPlanCacheHitAfterQuietEpoch pins the cache's reason to exist: with
// no churn, epoch 1 misses once per cluster (cold) and epoch 2 hits once
// per cluster, with no additional flow solves. The obs counters must
// report the same totals.
func TestPlanCacheHitAfterQuietEpoch(t *testing.T) {
	rt, err := buildQuietField()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	o := exp.Options{Workers: 2, Obs: reg.Observer()}

	if _, err := rt.RunEpoch(o); err != nil {
		t.Fatal(err)
	}
	hits, misses, clusters := cacheTotals(rt)
	if clusters == 0 {
		t.Fatal("fixture produced no non-empty clusters")
	}
	if hits != 0 || misses != uint64(clusters) {
		t.Fatalf("epoch 1: hits=%d misses=%d, want 0/%d", hits, misses, clusters)
	}
	solvesAfter1 := reg.Counter(MetricPlanCacheMisses, "").Value()
	if solvesAfter1 != float64(clusters) {
		t.Fatalf("%s = %v after epoch 1, want %d", MetricPlanCacheMisses, solvesAfter1, clusters)
	}

	if _, err := rt.RunEpoch(o); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ = cacheTotals(rt)
	if hits != uint64(clusters) || misses != uint64(clusters) {
		t.Fatalf("epoch 2: hits=%d misses=%d, want %d/%d", hits, misses, clusters, clusters)
	}
	if got := reg.Counter(MetricPlanCacheHits, "").Value(); got != float64(clusters) {
		t.Fatalf("%s = %v, want %d", MetricPlanCacheHits, got, clusters)
	}
	if got := reg.Counter(MetricPlanCacheMisses, "").Value(); got != float64(clusters) {
		t.Fatalf("%s = %v, want %d", MetricPlanCacheMisses, got, clusters)
	}
	// A hit serves the memoized plan without touching the solver, so the
	// solve counter must not move between epochs 1 and 2.
	if s1, s2 := solvesAfter1, reg.Counter(MetricPlanCacheMisses, "").Value(); s2 != s1 {
		t.Fatalf("misses moved on a quiet epoch: %v -> %v", s1, s2)
	}
}

// TestPlanCacheInvalidation pins the churn contract: a rebuild that
// changes the connectivity graph (killing a connected sensor) bumps the
// cluster's revision, so the next epoch re-plans that cluster while
// the untouched clusters keep hitting — and a refresh that flips nothing
// keeps both the revision and the cached plan.
func TestPlanCacheInvalidation(t *testing.T) {
	rt, err := buildQuietField()
	if err != nil {
		t.Fatal(err)
	}
	target := -1
	for k, c := range rt.clusters {
		if c != nil && c.Sensors() >= 3 {
			target = k
			break
		}
	}
	if target < 0 {
		t.Fatal("fixture has no cluster with >= 3 sensors")
	}
	o := exp.Options{}
	if _, err := rt.RunEpoch(o); err != nil {
		t.Fatal(err)
	}

	// MarkFailedBatch between epochs: target misses again, everyone else hits.
	rt.clusters[target].MarkFailedBatch([]int{1})
	rt.dead[target][1] = true
	if _, err := rt.RunEpoch(o); err != nil {
		t.Fatal(err)
	}
	for k, c := range rt.clusters {
		if c == nil {
			continue
		}
		pc := rt.slots[k].cache
		wantMisses, wantHits := uint64(1), uint64(1)
		if k == target {
			wantMisses, wantHits = 2, 0
		}
		if pc.Misses != wantMisses || pc.Hits != wantHits {
			t.Fatalf("cluster %d after MarkFailedBatch epoch: hits=%d misses=%d, want %d/%d",
				k, pc.Hits, pc.Misses, wantHits, wantMisses)
		}
	}

	// RefreshConnectivity with an unchanged propagation model flips no
	// link, so the revision holds and the cached plan is still served:
	// quiet refreshes must not evict.
	rev := rt.clusters[target].ConnectivityRev()
	rt.clusters[target].RefreshConnectivity()
	if got := rt.clusters[target].ConnectivityRev(); got != rev {
		t.Fatalf("no-op refresh moved the revision: %d -> %d", rev, got)
	}
	if _, err := rt.RunEpoch(o); err != nil {
		t.Fatal(err)
	}
	if pc := rt.slots[target].cache; pc.Misses != 2 || pc.Hits != 1 {
		t.Fatalf("no-op refresh evicted the plan: hits=%d misses=%d, want 1/2", pc.Hits, pc.Misses)
	}

	// A refresh that actually changes connectivity (another failure) must
	// still invalidate.
	rt.clusters[target].MarkFailedBatch([]int{2})
	rt.dead[target][2] = true
	if _, err := rt.RunEpoch(o); err != nil {
		t.Fatal(err)
	}
	if pc := rt.slots[target].cache; pc.Misses != 3 {
		t.Fatalf("connectivity change did not invalidate: misses=%d, want 3", pc.Misses)
	}
}

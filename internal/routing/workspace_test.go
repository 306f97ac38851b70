package routing

import (
	"math/rand"
	"testing"
)

// TestWorkspaceReuseEquivalence: plans computed through one recycled
// workspace must be identical to fresh solves — across random clusters of
// varying size, so every backing array shrinks and regrows. This is the
// allocation diet's correctness pin: the workspace may only change where
// intermediate state lives, never what the solver produces.
func TestWorkspaceReuseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var ws Workspace
	for trial := 0; trial < 40; trial++ {
		g, demand := randomCluster(rng)
		fresh, err := BalancedPaths(g, 0, demand)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := BalancedPathsWS(&ws, g, 0, demand)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Delta != reused.Delta {
			t.Fatalf("trial %d: delta %d fresh vs %d reused", trial, fresh.Delta, reused.Delta)
		}
		if !samePaths(fresh.Paths, reused.Paths) {
			t.Fatalf("trial %d: workspace reuse changed the decomposition:\n%v\nvs\n%v",
				trial, fresh.Paths, reused.Paths)
		}
	}
}

// TestWorkspacePlanIndependence: a plan produced with a workspace must not
// alias workspace memory — solving a different cluster through the same
// workspace leaves the earlier plan intact.
func TestWorkspacePlanIndependence(t *testing.T) {
	var ws Workspace
	g := lineCluster(6)
	demand := unitDemand(6)
	first, err := BalancedPathsWS(&ws, g, 0, demand)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BalancedPaths(g, 0, demand)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		g2, d2 := randomCluster(rng)
		if _, err := BalancedPathsWS(&ws, g2, 0, d2); err != nil {
			t.Fatal(err)
		}
	}
	if first.Delta != want.Delta || !samePaths(first.Paths, want.Paths) {
		t.Fatal("reusing the workspace mutated a previously returned plan")
	}
}

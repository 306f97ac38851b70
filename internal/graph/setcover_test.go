package graph

import (
	"math/rand"
	"testing"
)

func TestGreedySetCoverBasic(t *testing.T) {
	subs := []Subset{
		{Elements: []int{0, 1}, Cost: 1},
		{Elements: []int{2, 3}, Cost: 1},
		{Elements: []int{0, 1, 2, 3}, Cost: 1.5},
	}
	chosen, total, err := GreedySetCover(4, subs)
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 1 || chosen[0] != 2 || total != 1.5 {
		t.Fatalf("chosen=%v total=%v; want the big cheap subset", chosen, total)
	}
	if !CoversUniverse(4, subs, chosen) {
		t.Fatal("cover incomplete")
	}
}

func TestGreedySetCoverUncoverable(t *testing.T) {
	subs := []Subset{{Elements: []int{0}, Cost: 1}}
	if _, _, err := GreedySetCover(2, subs); err == nil {
		t.Fatal("expected error for uncoverable universe")
	}
}

func TestGreedySetCoverBadInput(t *testing.T) {
	if _, _, err := GreedySetCover(2, []Subset{{Elements: []int{0}, Cost: 0}}); err == nil {
		t.Fatal("expected error for zero cost")
	}
	if _, _, err := GreedySetCover(2, []Subset{{Elements: []int{5}, Cost: 1}}); err == nil {
		t.Fatal("expected error for out-of-universe element")
	}
	mustPanic(t, func() { GreedySetCover(-1, nil) })
}

func TestGreedySetCoverEmptyUniverse(t *testing.T) {
	chosen, total, err := GreedySetCover(0, nil)
	if err != nil || len(chosen) != 0 || total != 0 {
		t.Fatalf("empty universe: chosen=%v total=%v err=%v", chosen, total, err)
	}
}

func TestOptimalSetCoverBasic(t *testing.T) {
	subs := []Subset{
		{Elements: []int{0, 1}, Cost: 1},
		{Elements: []int{1, 2}, Cost: 1},
		{Elements: []int{0, 1, 2}, Cost: 2.5},
	}
	chosen, total, err := OptimalSetCover(3, subs)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 || len(chosen) != 2 {
		t.Fatalf("optimal = %v cost %v; want the two unit sets", chosen, total)
	}
}

func TestGreedyWithinLogFactorOfOptimal(t *testing.T) {
	// Greedy weighted set cover is an H_n-approximation. Verify on random
	// small instances against the exact solver.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		universe := 1 + rng.Intn(8)
		m := 1 + rng.Intn(8)
		subs := make([]Subset, m)
		for i := range subs {
			var elems []int
			for e := 0; e < universe; e++ {
				if rng.Float64() < 0.5 {
					elems = append(elems, e)
				}
			}
			subs[i] = Subset{Elements: elems, Cost: 1 + rng.Float64()*4}
		}
		optChosen, optCost, optErr := OptimalSetCover(universe, subs)
		gChosen, gCost, gErr := GreedySetCover(universe, subs)
		if (optErr == nil) != (gErr == nil) {
			t.Fatalf("trial %d: solvers disagree on feasibility: %v vs %v", trial, optErr, gErr)
		}
		if optErr != nil {
			continue
		}
		if !CoversUniverse(universe, subs, gChosen) || !CoversUniverse(universe, subs, optChosen) {
			t.Fatalf("trial %d: incomplete cover", trial)
		}
		// Harmonic bound H_universe.
		h := 0.0
		for k := 1; k <= universe; k++ {
			h += 1 / float64(k)
		}
		if gCost > optCost*h+1e-9 {
			t.Fatalf("trial %d: greedy %v exceeds H_n bound (opt %v, H=%v)", trial, gCost, optCost, h)
		}
		if gCost < optCost-1e-9 {
			t.Fatalf("trial %d: greedy %v beat optimal %v (?)", trial, gCost, optCost)
		}
	}
}

func TestCoversUniverseRejects(t *testing.T) {
	subs := []Subset{{Elements: []int{0}, Cost: 1}}
	if CoversUniverse(2, subs, []int{0}) {
		t.Error("accepted partial cover")
	}
	if CoversUniverse(1, subs, []int{5}) {
		t.Error("accepted out-of-range subset index")
	}
}

func TestOptimalSetCoverNoCover(t *testing.T) {
	if _, _, err := OptimalSetCover(2, []Subset{{Elements: []int{0}, Cost: 1}}); err == nil {
		t.Fatal("expected no-cover error")
	}
}

func TestGreedySetCoverPrefersDensity(t *testing.T) {
	// cost/new-element ratio drives the pick: subset 1 covers 3 elements at
	// cost 2 (ratio 0.67) and beats subset 0 covering 1 at cost 1.
	subs := []Subset{
		{Elements: []int{0}, Cost: 1},
		{Elements: []int{0, 1, 2}, Cost: 2},
	}
	chosen, _, err := GreedySetCover(3, subs)
	if err != nil {
		t.Fatal(err)
	}
	if chosen[0] != 1 {
		t.Fatalf("first pick = %d, want densest subset 1", chosen[0])
	}
}

// CoversUniverse reports whether the chosen subsets cover the whole
// universe {0..universe-1}.
func CoversUniverse(universe int, subsets []Subset, chosen []int) bool {
	covered := make([]bool, universe)
	for _, i := range chosen {
		if i < 0 || i >= len(subsets) {
			return false
		}
		for _, e := range subsets[i].Elements {
			if e >= 0 && e < universe {
				covered[e] = true
			}
		}
	}
	for _, c := range covered {
		if !c {
			return false
		}
	}
	return true
}

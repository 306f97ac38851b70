package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/radio"
)

// randomPollingRun builds a random multi-hop polling instance: sensors
// 1..n relay toward head 0 along random tree paths, with every pair of
// transmissions allowed at random — enough structure to exercise
// pipelining, collisions and the arrival ring.
func randomPollingRun(rng *rand.Rand, n int) ([]Request, *radio.TableOracle) {
	parent := make([]int, n+1)
	for v := 1; v <= n; v++ {
		parent[v] = rng.Intn(v) // 0..v-1, closer to the head
	}
	var reqs []Request
	id := 0
	for v := 1; v <= n; v++ {
		for k := rng.Intn(3); k > 0; k-- {
			route := []int{v}
			for x := v; x != 0; {
				x = parent[x]
				route = append(route, x)
			}
			id++
			reqs = append(reqs, Request{ID: id, Route: route})
		}
	}
	o := radio.NewTableOracle()
	for a := 0; a <= n; a++ {
		for b := a + 1; b <= n; b++ {
			if rng.Intn(2) == 0 {
				o.AllowPair(
					radio.Transmission{From: a, To: parent[a]},
					radio.Transmission{From: b, To: parent[b]},
				)
			}
		}
	}
	return reqs, o
}

// TestGreedyScratchEquivalence: a scratch-backed Greedy run must produce
// schedules and stats identical to a fresh run — across repeated reuse of
// one scratch with shrinking and growing request sets, with and without
// loss. The scratch may only move where buffers live.
func TestGreedyScratchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var gs GreedyScratch
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(12)
		reqs, o := randomPollingRun(rng, n)
		if len(reqs) == 0 {
			continue
		}
		var loss LossFn
		if trial%2 == 1 {
			loss = RandomLoss(int64(trial), 0.1)
		}
		fresh, freshStats, err := Greedy(reqs, Options{Oracle: o, Loss: loss})
		if err != nil {
			t.Fatal(err)
		}
		reused, reusedStats, err := Greedy(reqs, Options{Oracle: o, Loss: loss, Scratch: &gs})
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Makespan() != reused.Makespan() {
			t.Fatalf("trial %d: makespan %d fresh vs %d scratch", trial, fresh.Makespan(), reused.Makespan())
		}
		for s := range fresh.Slots {
			a, b := fresh.Slots[s], reused.Slots[s]
			if len(a) != len(b) {
				t.Fatalf("trial %d slot %d: %v vs %v", trial, s, a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trial %d slot %d: %v vs %v", trial, s, a, b)
				}
			}
		}
		if !reflect.DeepEqual(fresh.Start, reused.Start) || !reflect.DeepEqual(fresh.Completed, reused.Completed) {
			t.Fatalf("trial %d: start/completed maps diverge", trial)
		}
		if !reflect.DeepEqual(freshStats, reusedStats) {
			t.Fatalf("trial %d: stats diverge:\n%+v\nvs\n%+v", trial, freshStats, reusedStats)
		}
	}
}

// TestGreedyTestedOracleMatchesBareTruth: the poller asks a TestedOracle
// in its own link numbers and any other oracle through the scratch's
// wrapper. On random instances, with and without loss, both must give
// the identical Schedule and Stats for every M.
func TestGreedyTestedOracleMatchesBareTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var kept GreedyScratch
	for trial := 0; trial < 40; trial++ {
		reqs, truth := randomPollingRun(rng, 2+rng.Intn(12))
		if len(reqs) == 0 {
			continue
		}
		var loss LossFn
		if trial%2 == 1 {
			loss = RandomLoss(int64(trial), 0.1)
		}
		m := 1 + trial%radio.MaxM
		bare, bareStats, err := Greedy(reqs, Options{Oracle: truth, MaxConcurrent: m, Loss: loss})
		if err != nil {
			t.Fatal(err)
		}
		tested := radio.NewTestedOracle(truth, m)
		for pass := 0; pass < 2; pass++ { // cold, then every verdict known
			got, gotStats, err := Greedy(reqs, Options{Oracle: tested, Loss: loss, Scratch: &kept})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, bare) {
				t.Fatalf("trial %d pass %d M=%d: schedules diverge:\n%v\nvs bare\n%v", trial, pass, m, got, bare)
			}
			if !reflect.DeepEqual(gotStats, bareStats) {
				t.Fatalf("trial %d pass %d M=%d: stats diverge:\n%+v\nvs bare\n%+v", trial, pass, m, gotStats, bareStats)
			}
		}
	}
}

// TestGreedyKeptScratchAllocatesNothing: a pipelined run on a kept
// scratch whose oracle already knows every group it will ask about
// allocates nothing, with and without loss.
func TestGreedyKeptScratchAllocatesNothing(t *testing.T) {
	reqs, truth := randomPollingRun(rand.New(rand.NewSource(47)), 14)
	for _, loss := range []LossFn{nil, RandomLoss(3, 0.1)} {
		var gs GreedyScratch
		opt := Options{Oracle: radio.NewTestedOracle(truth, 3), Loss: loss, Scratch: &gs}
		if _, _, err := Greedy(reqs, opt); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := Greedy(reqs, opt); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("kept-scratch Greedy (loss %v) allocates %.1f times per run", loss != nil, allocs)
		}
	}
}

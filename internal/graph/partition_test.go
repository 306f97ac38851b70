package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPartitionBasic(t *testing.T) {
	subset, ok := Partition([]int{3, 2, 1, 2}) // the paper's Fig. 6 instance
	if !ok {
		t.Fatal("instance {3,2,1,2} is partitionable")
	}
	in, out := SubsetSums([]int{3, 2, 1, 2}, subset)
	if in != 4 || out != 4 {
		t.Fatalf("sums %d/%d want 4/4", in, out)
	}
}

func TestPartitionOddTotal(t *testing.T) {
	if _, ok := Partition([]int{1, 2}); ok {
		t.Fatal("odd total cannot partition")
	}
}

func TestPartitionImpossibleEven(t *testing.T) {
	// Total 8 but no subset sums to 4: {1, 7}? sums to 8, subsets {1},{7}.
	if _, ok := Partition([]int{1, 7}); ok {
		t.Fatal("{1,7} cannot partition")
	}
}

func TestPartitionSingle(t *testing.T) {
	if _, ok := Partition([]int{4}); ok {
		t.Fatal("single element cannot partition")
	}
}

func TestPartitionPanicsOnNonPositive(t *testing.T) {
	mustPanic(t, func() { Partition([]int{1, 0}) })
	mustPanic(t, func() { Partition([]int{-3, 3}) })
}

// brutePartition checks all 2^n subsets.
func brutePartition(a []int) bool {
	total := 0
	for _, v := range a {
		total += v
	}
	if total%2 != 0 {
		return false
	}
	for mask := 0; mask < 1<<uint(len(a)); mask++ {
		s := 0
		for i, v := range a {
			if mask&(1<<uint(i)) != 0 {
				s += v
			}
		}
		if s == total/2 {
			return true
		}
	}
	return false
}

func TestPartitionAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(10)
		a := make([]int, n)
		for i := range a {
			a[i] = 1 + rng.Intn(20)
		}
		subset, ok := Partition(a)
		if want := brutePartition(a); ok != want {
			t.Fatalf("trial %d: DP=%v brute=%v for %v", trial, ok, want, a)
		}
		if ok {
			in, out := SubsetSums(a, subset)
			if in != out {
				t.Fatalf("trial %d: unbalanced partition %d/%d of %v", trial, in, out, a)
			}
		}
	}
}

func TestPartitionQuickDoubledSets(t *testing.T) {
	// Any multiset of the form a ++ a partitions trivially; DP must agree.
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 8 {
			raw = raw[:8]
		}
		a := make([]int, 0, 2*len(raw))
		for _, v := range raw {
			a = append(a, int(v%50)+1)
		}
		a = append(a, a...)
		subset, ok := Partition(a)
		if !ok {
			return false
		}
		in, out := SubsetSums(a, subset)
		return in == out
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// SubsetSums returns the sums of the two halves induced by subset.
func SubsetSums(a []int, subset []bool) (inSum, outSum int) {
	for i, v := range a {
		if subset[i] {
			inSum += v
		} else {
			outSum += v
		}
	}
	return inSum, outSum
}

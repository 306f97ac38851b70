package graph

// The Partition problem underlies the paper's Theorem 5: optimal sector
// partitioning (CPAR) is NP-complete by reduction from Partition. The
// solvers here power the cmd/nphard demo and the sector-package tests that
// validate the reduction on concrete instances.

// Partition decides whether the positive integers in a can be split into
// two subsets of equal sum, using the standard pseudo-polynomial subset-sum
// dynamic program. When a partition exists it returns (subset, true) where
// subset[i] reports whether a[i] belongs to the first half; otherwise
// (nil, false). Non-positive entries panic — the problem is defined over
// positive integers.
func Partition(a []int) ([]bool, bool) {
	total := 0
	for _, v := range a {
		if v <= 0 {
			panic("graph: Partition requires positive integers")
		}
		total += v
	}
	if total%2 != 0 {
		return nil, false
	}
	target := total / 2
	// from[s] = index of the last element used to first reach sum s, or -1.
	from := make([]int, target+1)
	for i := range from {
		from[i] = -1
	}
	reach := make([]bool, target+1)
	reach[0] = true
	for i, v := range a {
		for s := target; s >= v; s-- {
			if reach[s-v] && !reach[s] {
				reach[s] = true
				from[s] = i
			}
		}
	}
	if !reach[target] {
		return nil, false
	}
	subset := make([]bool, len(a))
	// Walk back through the DP. Because we only set from[s] the first time
	// s becomes reachable, and items are processed in order, following
	// from[] never reuses an element.
	for s := target; s > 0; {
		i := from[s]
		subset[i] = true
		s -= a[i]
	}
	return subset, true
}

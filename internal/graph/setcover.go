package graph

import "fmt"

// Weighted Set Cover, used for acknowledgment collection (Section V-F):
// the sensors are the elements, the candidate relaying paths are the
// subsets, each costed by its hop count; the head picks a minimum-cost set
// of paths covering every sensor, then polls only the first sensor of each
// chosen path.

// Subset is one candidate set in a weighted set cover instance.
type Subset struct {
	// Elements are the universe elements covered by this subset.
	Elements []int
	// Cost is the subset's weight; the paper uses the path's hop count.
	Cost float64
}

// GreedySetCover solves weighted set cover over universe {0..universe-1}
// with the classical greedy rule the paper prescribes: repeatedly choose
// the subset minimizing cost / (newly covered elements). It returns the
// indices of the chosen subsets in pick order and the total cost.
//
// An error is returned if the subsets do not jointly cover the universe.
// Costs must be positive.
func GreedySetCover(universe int, subsets []Subset) (chosen []int, total float64, err error) {
	if universe < 0 {
		panic("graph: negative universe")
	}
	covered := make([]bool, universe)
	remaining := universe
	for _, s := range subsets {
		if s.Cost <= 0 {
			return nil, 0, fmt.Errorf("graph: set cover requires positive costs, got %v", s.Cost)
		}
		for _, e := range s.Elements {
			if e < 0 || e >= universe {
				return nil, 0, fmt.Errorf("graph: element %d outside universe [0,%d)", e, universe)
			}
		}
	}
	used := make([]bool, len(subsets))
	for remaining > 0 {
		best, bestRatio, bestNew := -1, 0.0, 0
		for i, s := range subsets {
			if used[i] {
				continue
			}
			fresh := 0
			for _, e := range s.Elements {
				if !covered[e] {
					fresh++
				}
			}
			if fresh == 0 {
				continue
			}
			ratio := s.Cost / float64(fresh)
			if best < 0 || ratio < bestRatio || (ratio == bestRatio && fresh > bestNew) {
				best, bestRatio, bestNew = i, ratio, fresh
			}
		}
		if best < 0 {
			return nil, 0, fmt.Errorf("graph: %d elements cannot be covered", remaining)
		}
		used[best] = true
		chosen = append(chosen, best)
		total += subsets[best].Cost
		for _, e := range subsets[best].Elements {
			if !covered[e] {
				covered[e] = true
				remaining--
			}
		}
	}
	return chosen, total, nil
}

// OptimalSetCover solves weighted set cover exactly by exhaustive subset
// enumeration. It is exponential in len(subsets) and intended only for
// validating the greedy's approximation quality in tests (≤ ~20 subsets).
// It returns the chosen indices and minimum total cost, or an error when no
// cover exists.
func OptimalSetCover(universe int, subsets []Subset) (chosen []int, total float64, err error) {
	if len(subsets) > 24 {
		panic("graph: OptimalSetCover limited to 24 subsets")
	}
	masks := make([]uint64, len(subsets))
	for i, s := range subsets {
		if s.Cost <= 0 {
			return nil, 0, fmt.Errorf("graph: set cover requires positive costs, got %v", s.Cost)
		}
		for _, e := range s.Elements {
			if e < 0 || e >= universe {
				return nil, 0, fmt.Errorf("graph: element %d outside universe [0,%d)", e, universe)
			}
			masks[i] |= 1 << uint(e)
		}
	}
	if universe > 63 {
		panic("graph: OptimalSetCover limited to universe of 63 elements")
	}
	full := uint64(1)<<uint(universe) - 1
	bestCost := -1.0
	var bestPick uint32
	for pick := uint32(0); pick < 1<<uint(len(subsets)); pick++ {
		var cover uint64
		cost := 0.0
		for i := range subsets {
			if pick&(1<<uint(i)) != 0 {
				cover |= masks[i]
				cost += subsets[i].Cost
			}
		}
		if cover == full && (bestCost < 0 || cost < bestCost) {
			bestCost, bestPick = cost, pick
		}
	}
	if bestCost < 0 {
		return nil, 0, fmt.Errorf("graph: no cover exists")
	}
	for i := range subsets {
		if bestPick&(1<<uint(i)) != 0 {
			chosen = append(chosen, i)
		}
	}
	return chosen, bestCost, nil
}

package core

import (
	"fmt"

	"repro/internal/radio"
)

// ValidateDelayed checks a delay-allowed schedule: hops of every request
// appear in increasing (not necessarily consecutive) slot order, all slot
// groups are compatible, and every request completes. Retried hops may
// appear multiple times; the check requires an increasing chain.
func ValidateDelayed(sched *Schedule, reqs []Request, truth radio.CompatibilityOracle) error {
	for s, group := range sched.Slots {
		if len(group) == 0 {
			continue
		}
		if !truth.Compatible(group) {
			return fmt.Errorf("core: slot %d group %v collides under ground truth", s, group)
		}
	}
	for _, r := range reqs {
		if _, ok := sched.Completed[r.ID]; !ok {
			return fmt.Errorf("core: request %d never completed", r.ID)
		}
		prev := -1
		for k := 0; k < r.Hops(); k++ {
			found := -1
			for s := prev + 1; s < len(sched.Slots); s++ {
				if containsTx(sched.Slots[s], r.Tx(k)) {
					found = s
					break
				}
			}
			if found < 0 {
				return fmt.Errorf("core: request %d hop %d has no slot after %d", r.ID, k, prev)
			}
			prev = found
		}
	}
	return nil
}

// Transmissions returns the total number of scheduled transmissions,
// including those wasted by losses.
func (s *Schedule) Transmissions() int {
	n := 0
	for _, slot := range s.Slots {
		n += len(slot)
	}
	return n
}

package core

import (
	"fmt"

	"repro/internal/radio"
)

// Validate checks that a schedule is physically sound against the ground
// truth and logically complete for the given requests:
//
//  1. every slot's transmission group is compatible under truth (the
//     schedule is collision-free on the real channel);
//  2. every request's hops appear in consecutive slots starting at
//     Start[ID] (the pipelining discipline; lost-and-retried requests are
//     validated against their final admission);
//  3. every request is completed exactly at Start + Hops - 1.
//
// A nil error means the schedule can be executed verbatim by the cluster.
func Validate(sched *Schedule, reqs []Request, truth radio.CompatibilityOracle) error {
	for s, group := range sched.Slots {
		if len(group) == 0 {
			continue
		}
		if !truth.Compatible(group) {
			return fmt.Errorf("core: slot %d group %v collides under ground truth", s, group)
		}
	}
	for _, r := range reqs {
		start, ok := sched.Start[r.ID]
		if !ok {
			return fmt.Errorf("core: request %d was never admitted", r.ID)
		}
		for k := 0; k < r.Hops(); k++ {
			s := start + k
			if s >= len(sched.Slots) {
				return fmt.Errorf("core: request %d hop %d falls beyond the schedule", r.ID, k)
			}
			if !containsTx(sched.Slots[s], r.Tx(k)) {
				return fmt.Errorf("core: request %d hop %d (%v) missing from slot %d", r.ID, k, r.Tx(k), s)
			}
		}
		done, ok := sched.Completed[r.ID]
		if !ok {
			return fmt.Errorf("core: request %d never completed", r.ID)
		}
		if want := start + r.Hops() - 1; done != want {
			return fmt.Errorf("core: request %d completed at slot %d, want %d", r.ID, done, want)
		}
	}
	return nil
}

func containsTx(group []radio.Transmission, tx radio.Transmission) bool {
	for _, g := range group {
		if g == tx {
			return true
		}
	}
	return false
}

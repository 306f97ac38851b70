package core

import (
	"fmt"

	"repro/internal/radio"
)

// Optimal computes a minimum-makespan pipelined (no-delay) polling
// schedule by branch-and-bound over per-slot admission decisions. It is
// exponential — the MHP problem is NP-hard — and intended for small
// instances (roughly up to a dozen requests) to quantify the greedy's
// optimality gap and to verify the NP-hardness reductions.
//
// The search is seeded with the greedy solution as the initial upper
// bound. The compatibility oracle must be monotone: adding a transmission
// to an incompatible group never makes it compatible (true for SINR-based
// and pairwise-table oracles).
func Optimal(reqs []Request, opt Options) (*Schedule, error) {
	if opt.Oracle == nil {
		return nil, fmt.Errorf("core: Options.Oracle is required")
	}
	if opt.Loss != nil {
		return nil, fmt.Errorf("core: Optimal is defined for lossless channels")
	}
	if opt.AllowDelay {
		return nil, fmt.Errorf("core: Optimal schedules without packet delay (Theorem 2: delay cannot help)")
	}
	if len(reqs) > 16 {
		return nil, fmt.Errorf("core: Optimal limited to 16 requests, got %d", len(reqs))
	}
	for _, r := range reqs {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	if len(reqs) == 0 {
		return &Schedule{Start: map[int]int{}, Completed: map[int]int{}}, nil
	}

	// Upper bound from greedy.
	gsched, _, err := Greedy(reqs, Options{
		Oracle:        opt.Oracle,
		MaxConcurrent: opt.MaxConcurrent,
	})
	if err != nil {
		return nil, err
	}
	b := &bnb{
		reqs:   reqs,
		oracle: opt.Oracle,
		m:      opt.maxConcurrent(),
		best:   gsched.Makespan(),
		bestStarts: func() []int {
			starts := make([]int, len(reqs))
			for i, r := range reqs {
				starts[i] = gsched.Start[r.ID]
			}
			return starts
		}(),
	}
	starts := make([]int, len(reqs))
	for i := range starts {
		starts[i] = -1
	}
	b.search(0, starts, nil, len(reqs))
	return scheduleFromStarts(reqs, b.bestStarts), nil
}

type bnb struct {
	reqs       []Request
	oracle     radio.CompatibilityOracle
	m          int
	best       int // best makespan found so far
	bestStarts []int
}

// search explores admission decisions for the given slot. starts[i] is
// request i's start slot or -1; slots holds the transmissions committed to
// each slot so far; unstarted counts requests with starts[i] == -1.
func (b *bnb) search(slot int, starts []int, slots [][]radio.Transmission, unstarted int) {
	// Makespan so far (from committed transmissions).
	if unstarted == 0 {
		if len(slots) < b.best {
			b.best = len(slots)
			copy(b.bestStarts, starts)
		}
		return
	}
	// Lower bounds. Any unstarted request r arrives no earlier than slot
	// slot+Hops-1, so makespan >= slot+Hops. All remaining packets arrive
	// at the head in distinct slots, so makespan >= slot + arrivals still
	// pending at or after this slot.
	lb := 0
	pendingArrivals := 0
	for i, r := range b.reqs {
		switch {
		case starts[i] < 0:
			pendingArrivals++
			if v := slot + r.Hops(); v > lb {
				lb = v
			}
		case starts[i]+r.Hops()-1 >= slot:
			pendingArrivals++
		}
	}
	if v := slot + pendingArrivals; v > lb {
		lb = v
	}
	if v := len(slots); v > lb {
		lb = v
	}
	if lb >= b.best {
		return
	}

	// Candidates that can start at this slot, respecting monotone
	// compatibility against already-committed transmissions.
	var cands []int
	for i := range b.reqs {
		if starts[i] < 0 && b.fitsAt(b.reqs[i], slot, slots) {
			cands = append(cands, i)
		}
	}

	inFlight := false
	for i, r := range b.reqs {
		if starts[i] >= 0 && starts[i]+r.Hops()-1 >= slot {
			inFlight = true
			break
		}
	}

	// Enumerate subsets of candidates via DFS; each accepted candidate is
	// committed before considering the next, so compatibility composes.
	var extend func(ci int, picked int, slots [][]radio.Transmission)
	extend = func(ci int, picked int, slots [][]radio.Transmission) {
		if ci == len(cands) {
			if picked == 0 && !inFlight {
				// Idle slot with nothing in flight can never help.
				return
			}
			b.search(slot+1, starts, slots, unstarted-picked)
			return
		}
		idx := cands[ci]
		// Branch 1: start cands[ci] now (if still compatible given
		// earlier picks in this subset).
		if b.fitsAt(b.reqs[idx], slot, slots) {
			committed := commit(slots, b.reqs[idx], slot)
			starts[idx] = slot
			extend(ci+1, picked+1, committed)
			starts[idx] = -1
		}
		// Branch 2: skip it.
		extend(ci+1, picked, slots)
	}
	extend(0, 0, slots)
}

func (b *bnb) fitsAt(r Request, slot int, slots [][]radio.Transmission) bool {
	group := make([]radio.Transmission, 0, 8)
	for k := 0; k < r.Hops(); k++ {
		s := slot + k
		var existing []radio.Transmission
		if s < len(slots) {
			existing = slots[s]
		}
		if b.m > 0 && len(existing)+1 > b.m {
			return false
		}
		group = group[:0]
		group = append(group, existing...)
		group = append(group, r.Tx(k))
		if !b.oracle.Compatible(group) {
			return false
		}
	}
	return true
}

// commit returns a copy of slots with r's hops added starting at slot.
func commit(slots [][]radio.Transmission, r Request, slot int) [][]radio.Transmission {
	end := slot + r.Hops()
	capacity := end
	if len(slots) > capacity {
		capacity = len(slots)
	}
	out := make([][]radio.Transmission, len(slots), capacity)
	copy(out, slots)
	for len(out) < end {
		out = append(out, nil)
	}
	for k := 0; k < r.Hops(); k++ {
		s := slot + k
		out[s] = append(append([]radio.Transmission(nil), out[s]...), r.Tx(k))
	}
	return out
}

// scheduleFromStarts materializes a schedule from per-request start slots.
func scheduleFromStarts(reqs []Request, starts []int) *Schedule {
	sched := &Schedule{Start: make(map[int]int), Completed: make(map[int]int)}
	for i, r := range reqs {
		s := starts[i]
		sched.Start[r.ID] = s
		done := s + r.Hops() - 1
		for len(sched.Slots) <= done {
			sched.Slots = append(sched.Slots, nil)
		}
		for k := 0; k < r.Hops(); k++ {
			sched.Slots[s+k] = append(sched.Slots[s+k], r.Tx(k))
		}
		sched.Completed[r.ID] = done
	}
	return sched
}

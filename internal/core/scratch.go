package core

import "repro/internal/radio"

// GreedyScratch holds the reusable buffers of a pipelined Greedy run: the
// schedule's slot list (inner slot buckets included), the result maps,
// the stats maps, the activity flags, the arrival ring and the oracle
// scratch group. Every Greedy call runs on one: a nil Options.Scratch is
// replaced by a zero-value scratch private to that call. Pass one via
// Options.Scratch to make repeated polling runs allocation-free in steady
// state.
//
// The Schedule and Stats returned by Greedy point into its scratch: they
// are valid until the next Greedy call with the same scratch. Callers that
// retain schedules (replay) must not share a scratch between the calls
// whose schedules they keep. The zero value is ready to use; a scratch
// serves one goroutine at a time.
type GreedyScratch struct {
	sched    Schedule
	stats    Stats
	order    []int
	active   []bool
	arrivals [][]flight
	group    []radio.Transmission
}

// reset re-arms the scratch for a run over len(reqs) requests and returns
// the schedule and stats to fill, with maps cleared and every slice
// truncated (backing arrays kept).
func (gs *GreedyScratch) reset(nReqs int) (*Schedule, *Stats) {
	sched := &gs.sched
	sched.Slots = sched.Slots[:0]
	if sched.Start == nil {
		sched.Start = make(map[int]int, nReqs)
		sched.Completed = make(map[int]int, nReqs)
	} else {
		clear(sched.Start)
		clear(sched.Completed)
	}
	st := &gs.stats
	if st.TxCount == nil {
		st.TxCount = make(map[int]int)
		st.RxCount = make(map[int]int)
		st.LastActive = make(map[int]int)
	} else {
		clear(st.TxCount)
		clear(st.RxCount)
		clear(st.LastActive)
	}
	st.Slots, st.Retries = 0, 0
	return sched, st
}

// bools returns gs.active resized to n; contents are unspecified and the
// caller overwrites every entry.
func (gs *GreedyScratch) bools(n int) []bool {
	if cap(gs.active) >= n {
		gs.active = gs.active[:n]
	} else {
		gs.active = make([]bool, n)
	}
	return gs.active
}

// ring returns the arrival ring resized to n buckets, every bucket
// emptied with its storage kept.
func (gs *GreedyScratch) ring(n int) [][]flight {
	if cap(gs.arrivals) >= n {
		gs.arrivals = gs.arrivals[:n]
	} else {
		gs.arrivals = append(gs.arrivals[:cap(gs.arrivals)], make([][]flight, n-cap(gs.arrivals))...)
	}
	for i := range gs.arrivals {
		gs.arrivals[i] = gs.arrivals[i][:0]
	}
	return gs.arrivals
}

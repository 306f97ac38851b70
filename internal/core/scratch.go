package core

import "repro/internal/radio"

// GreedyScratch holds the reusable buffers of a pipelined Greedy run: the
// schedule's slot list with a link bucket beside each slot bucket, the
// request hops' link ids, the result maps, the stats books, the activity
// flags, the arrival ring, the oracle scratch group and the link
// numbering for an oracle that keeps none. Every Greedy call runs on
// one: a nil Options.Scratch is replaced by a zero-value scratch private
// to that call. Pass one via Options.Scratch to make repeated polling
// runs allocation-free in steady state.
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
	// hops holds every request's link ids back to back; reqLinks[i] is
	// request i's share of it. slotLinks[s] numbers sched.Slots[s], entry
	// for entry.
	hops      []radio.Link
	reqLinks  [][]radio.Link
	slotLinks [][]radio.Link
	group     []radio.Link
	numbered  radio.Numbered
}

// linkOracle is how the pipelined poller asks: it numbers every hop once
// per run, then asks about groups of numbered links.
// radio.TestedOracle is one; any other oracle is asked through the
// scratch's radio.Numbered.
type linkOracle interface {
	Link(radio.Transmission) radio.Link
	CompatibleLinks([]radio.Link) bool
}

// reset re-arms the scratch for a run over reqs, whose routes name nodes
// below nodes and hold totalHops hops, and returns the schedule and stats
// to fill, with maps cleared, books sized and every slice truncated
// (backing arrays kept). It numbers every request's hops through the
// oracle, wrapping one that keeps no numbering.
func (gs *GreedyScratch) reset(reqs []Request, nodes, totalHops int, oracle radio.CompatibilityOracle) (*Schedule, *Stats, linkOracle) {
	sched := &gs.sched
	sched.Slots = sched.Slots[:0]
	gs.slotLinks = gs.slotLinks[:0]
	if sched.Start == nil {
		sched.Start = make(map[int]int, len(reqs))
		sched.Completed = make(map[int]int, len(reqs))
	} else {
		clear(sched.Start)
		clear(sched.Completed)
	}
	gs.stats.reset(nodes)

	lo, ok := oracle.(linkOracle)
	if !ok {
		gs.numbered.Reset(oracle)
		lo = &gs.numbered
	}
	// Sized up front, so the per-request subslices stay valid.
	if cap(gs.hops) < totalHops {
		gs.hops = make([]radio.Link, 0, totalHops)
	}
	hops := gs.hops[:0]
	gs.reqLinks = gs.reqLinks[:0]
	for _, r := range reqs {
		start := len(hops)
		for k := 0; k < r.Hops(); k++ {
			hops = append(hops, lo.Link(r.Tx(k)))
		}
		gs.reqLinks = append(gs.reqLinks, hops[start:])
	}
	gs.hops = hops
	return sched, &gs.stats, lo
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

// extend returns b with at least s+1 buckets. A bucket added within
// capacity keeps the previous run's storage, emptied, instead of having
// its header overwritten with nil — the scratch reuse.
func extend[T any](b [][]T, s int) [][]T {
	for len(b) <= s {
		if n := len(b); n < cap(b) {
			b = b[:n+1]
			b[n] = b[n][:0]
		} else {
			b = append(b, nil)
		}
	}
	return b
}

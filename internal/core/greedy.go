package core

import (
	"fmt"

	"repro/internal/radio"
)

// Greedy runs the paper's on-line polling algorithm (Table 1).
//
// Each packet is a polling request; requests start active. Before every
// time slot the head scans the active requests in a fixed order and admits
// a request if its pipelined transmissions do not collide with the
// already-scheduled ones in any affected slot (and no slot exceeds M
// concurrent transmissions). Admitted requests become idle. Because the
// head knows each admitted packet's start slot and hop count, it knows
// exactly when to expect the packet; if the packet does not arrive —
// packet loss — the request becomes active again and is re-polled.
//
// Greedy returns the schedule as instructed by the head (lost hops keep
// their reserved slots) and the physical statistics of the run.
func Greedy(reqs []Request, opt Options) (*Schedule, *Stats, error) {
	if opt.Oracle == nil {
		return nil, nil, fmt.Errorf("core: Options.Oracle is required")
	}
	gs := opt.Scratch
	if gs == nil {
		gs = new(GreedyScratch)
	}
	order, err := scanOrder(reqs, opt.Order, gs.order)
	if err != nil {
		return nil, nil, err
	}
	gs.order = order
	totalHops, nodes := 0, 0
	for _, r := range reqs {
		if err := r.Validate(); err != nil {
			return nil, nil, err
		}
		totalHops += r.Hops()
		for _, v := range r.Route {
			nodes = max(nodes, v+1)
		}
	}
	// A safety net for pathological loss rates: runs that exceed this
	// many slots abort.
	maxSlots := 64 * (totalHops + 1)
	if opt.AllowDelay {
		return greedyDelay(reqs, order, opt, maxSlots, totalHops, nodes)
	}
	return greedyPipelined(gs, reqs, order, opt, maxSlots, totalHops, nodes)
}

func scanOrder(reqs []Request, order []int, buf []int) ([]int, error) {
	if order == nil {
		if cap(buf) >= len(reqs) {
			buf = buf[:len(reqs)]
		} else {
			buf = make([]int, len(reqs))
		}
		for i := range buf {
			buf[i] = i
		}
		return buf, nil
	}
	if len(order) != len(reqs) {
		return nil, fmt.Errorf("core: order has %d entries for %d requests", len(order), len(reqs))
	}
	seen := make([]bool, len(reqs))
	for _, i := range order {
		if i < 0 || i >= len(reqs) || seen[i] {
			return nil, fmt.Errorf("core: order is not a permutation")
		}
		seen[i] = true
	}
	return append(buf[:0], order...), nil
}

// flight tracks one admitted (in-flight) request.
type flight struct {
	req       int // index into reqs
	start     int
	firstLoss int // hop index whose transmission is lost, or -1
}

func greedyPipelined(gs *GreedyScratch, reqs []Request, order []int, opt Options, maxSlots, totalHops, nodes int) (*Schedule, *Stats, error) {
	m := opt.maxConcurrent()
	sched, st, oracle := gs.reset(reqs, nodes, totalHops, opt.Oracle)
	active := gs.bools(len(reqs))
	remaining := len(reqs)
	maxHops := 0
	for i, r := range reqs {
		active[i] = true
		if h := r.Hops(); h > maxHops {
			maxHops = h
		}
	}
	// Expected arrivals live at most maxHops-1 slots in the future, so a
	// fixed ring indexed by slot replaces a map[int][]flight; buckets are
	// reused across laps, making the steady state allocation-free.
	ringSize := maxHops + 1
	arrivals := gs.ring(ringSize)

	for slot := 0; remaining > 0; slot++ {
		if slot >= maxSlots {
			return sched, st, fmt.Errorf("core: polling exceeded %d slots with %d packets outstanding", maxSlots, remaining)
		}
		// Admission scan (the inner while-loop of Table 1): add active
		// requests whose pipelined hops fit.
		for _, idx := range order {
			if !active[idx] {
				continue
			}
			r, links := reqs[idx], gs.reqLinks[idx]
			if !fits(gs.slotLinks, links, slot, m, oracle, &gs.group) {
				continue
			}
			// Commit every hop to its slot, the link beside the
			// transmission.
			for k, l := range links {
				s := slot + k
				sched.Slots = extend(sched.Slots, s)
				gs.slotLinks = extend(gs.slotLinks, s)
				sched.Slots[s] = append(sched.Slots[s], r.Tx(k))
				gs.slotLinks[s] = append(gs.slotLinks[s], l)
			}
			f := flight{req: idx, start: slot, firstLoss: -1}
			if opt.Loss != nil {
				for k := 0; k < r.Hops(); k++ {
					if opt.Loss(slot+k, r.Tx(k)) {
						f.firstLoss = k
						break
					}
				}
			}
			done := slot + r.Hops() - 1
			arrivals[done%ringSize] = append(arrivals[done%ringSize], f)
			active[idx] = false
			sched.Start[r.ID] = slot
			// Physical accounting: hops up to and including the lost one
			// actually transmit; later hops have nothing to forward.
			lastHop := r.Hops() - 1
			if f.firstLoss >= 0 {
				lastHop = f.firstLoss
			}
			for k := 0; k <= lastHop; k++ {
				st.markTx(r.Route[k], slot+k)
				st.markRx(r.Route[k+1], slot+k)
			}
		}
		// End of slot: the head checks expected arrivals.
		bucket := arrivals[slot%ringSize]
		for _, f := range bucket {
			if f.firstLoss >= 0 {
				st.Retries++
				active[f.req] = true
			} else {
				sched.Completed[reqs[f.req].ID] = slot
				remaining--
			}
		}
		arrivals[slot%ringSize] = bucket[:0]
	}
	st.Slots = len(sched.Slots)
	return sched, st, nil
}

// fits reports whether a request whose hops are the links ls, started at
// slot, keeps every affected slot's group compatible and within the
// concurrency cap m (m == 0 means uncapped). slotLinks numbers the
// schedule's slots. The candidate groups are assembled in the
// caller-owned scratch buffer so the per-candidate check allocates
// nothing.
func fits(slotLinks [][]radio.Link, ls []radio.Link, slot, m int, oracle linkOracle, scratch *[]radio.Link) bool {
	group := (*scratch)[:0]
	for k, l := range ls {
		s := slot + k
		var existing []radio.Link
		if s < len(slotLinks) {
			existing = slotLinks[s]
		}
		if m > 0 && len(existing)+1 > m {
			*scratch = group
			return false
		}
		group = append(append(group[:0], existing...), l)
		if !oracle.CompatibleLinks(group) {
			*scratch = group
			return false
		}
	}
	*scratch = group
	return true
}

// greedyDelay is the delay-allowed variant: every hop is scheduled
// independently and a relay may hold a packet across slots. On loss the
// failed hop is retried from the node that still holds the packet.
func greedyDelay(reqs []Request, order []int, opt Options, maxSlots, totalHops, nodes int) (*Schedule, *Stats, error) {
	m := opt.maxConcurrent()
	sched := &Schedule{
		Slots:     make([][]radio.Transmission, 0, totalHops),
		Start:     make(map[int]int, len(reqs)),
		Completed: make(map[int]int, len(reqs)),
	}
	st := new(Stats)
	st.reset(nodes)

	pos := make([]int, len(reqs)) // current holder index within the route
	remaining := len(reqs)
	group := make([]radio.Transmission, 0, 16)
	movers := make([]int, 0, len(reqs))

	for slot := 0; remaining > 0; slot++ {
		if slot >= maxSlots {
			return sched, st, fmt.Errorf("core: polling exceeded %d slots with %d packets outstanding", maxSlots, remaining)
		}
		group = group[:0]
		movers = movers[:0]
		for _, idx := range order {
			r := reqs[idx]
			if pos[idx] >= r.Hops() {
				continue
			}
			tx := r.Tx(pos[idx])
			if m > 0 && len(group)+1 > m {
				continue
			}
			// Test the candidate in place and roll back on rejection,
			// instead of copying the whole group per candidate.
			group = append(group, tx)
			if !opt.Oracle.Compatible(group) {
				group = group[:len(group)-1]
				continue
			}
			movers = append(movers, idx)
			if pos[idx] == 0 {
				if _, started := sched.Start[r.ID]; !started {
					sched.Start[r.ID] = slot
				}
			}
		}
		sched.Slots = append(sched.Slots, append([]radio.Transmission(nil), group...))
		for gi, idx := range movers {
			r := reqs[idx]
			tx := group[gi]
			st.markTx(tx.From, slot)
			st.markRx(tx.To, slot)
			if opt.Loss != nil && opt.Loss(slot, tx) {
				st.Retries++
				continue // holder keeps the packet; hop retried later
			}
			pos[idx]++
			if pos[idx] == r.Hops() {
				sched.Completed[r.ID] = slot
				remaining--
			}
		}
	}
	st.Slots = len(sched.Slots)
	return sched, st, nil
}

// RandomLoss returns a LossFn that loses each transmission independently
// with probability p, deterministically derived from the given seed and
// the (slot, transmission) pair so that runs are reproducible.
func RandomLoss(seed int64, p float64) LossFn {
	if p < 0 || p > 1 {
		panic("core: loss probability outside [0,1]")
	}
	return ProbLoss(seed, func(radio.Transmission) float64 { return p })
}

// ProbLoss returns a LossFn with a per-transmission loss probability given
// by prob (e.g. derived from each link's SNR margin via radio.Quality),
// deterministic per (seed, slot, transmission). The draw is a stateless
// splitmix-style hash of (seed, slot, tx) — no RNG is constructed on the
// hot path.
func ProbLoss(seed int64, prob func(tx radio.Transmission) float64) LossFn {
	return func(slot int, tx radio.Transmission) bool {
		p := prob(tx)
		if p <= 0 {
			return false
		}
		if p >= 1 {
			return true
		}
		return lossUnit(seed, slot, tx) < p
	}
}

// lossUnit maps (seed, slot, tx) to a uniform draw in [0, 1).
func lossUnit(seed int64, slot int, tx radio.Transmission) float64 {
	h := mix64(uint64(seed) ^ 0x9E3779B97F4A7C15)
	h = mix64(h ^ uint64(slot)*0xBF58476D1CE4E5B9)
	h = mix64(h ^ uint64(uint32(tx.From))*0x94D049BB133111EB)
	h = mix64(h ^ uint64(uint32(tx.To))*0x9E3779B97F4A7C15)
	return float64(h>>11) / (1 << 53)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

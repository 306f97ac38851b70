package routing

// PlanCache memoizes the last BalancedPaths result for one cluster, keyed
// by (connectivity revision, demand fingerprint). The field runtime
// rebuilds every cluster's runner at each epoch boundary; when neither the
// topology nor the demand changed, the plan is a pure function of those
// inputs and re-solving the flow network is pure waste — the cache hands
// the previous *Plan back instead.
//
// One slot suffices: a cluster's inputs evolve monotonically (churn bumps
// the revision, demand shifts with the cycle parameters), so only the most
// recent plan is ever asked for again. Cached plans are shared across
// runners and must be treated as immutable.
//
// A PlanCache is not safe for concurrent use; the field runtime keeps one
// per cluster, and a cluster only ever runs on one shard worker at a time.
type PlanCache struct {
	valid bool
	rev   uint64
	fp    uint64
	plan  *Plan

	// Hits and Misses count Lookup outcomes; the field runtime surfaces
	// them as field_plan_cache_hits_total / field_plan_cache_misses_total.
	Hits, Misses uint64
}

// FingerprintDemand hashes a demand vector (splitmix64-style), so plan
// caches can detect demand changes without retaining the slice.
func FingerprintDemand(demand []int) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	mix := func(p uint64) {
		h ^= p
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	mix(uint64(len(demand)))
	for _, d := range demand {
		mix(uint64(d))
	}
	return h
}

// Lookup returns the cached plan when it was computed for exactly this
// (revision, demand) key, and nil on a miss.
func (pc *PlanCache) Lookup(rev uint64, demand []int) *Plan {
	if pc.valid && pc.rev == rev && pc.fp == FingerprintDemand(demand) {
		pc.Hits++
		return pc.plan
	}
	pc.Misses++
	return nil
}

// Store records the plan for the given key, replacing any previous entry.
func (pc *PlanCache) Store(rev uint64, demand []int, plan *Plan) {
	pc.valid = true
	pc.rev = rev
	pc.fp = FingerprintDemand(demand)
	pc.plan = plan
}

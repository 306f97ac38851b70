package dist

import (
	"sort"

	"repro/internal/backoff"
)

// Rendezvous (highest-random-weight) hashing is the coordinator's one
// placement rule: every pending cluster k goes to the live worker
// maximizing splitmix64(hash(worker) ^ hash(k)). Two properties matter
// here. Stability: removing a worker moves only that worker's clusters —
// within a run the live set only shrinks, so a cluster whose owner is
// alive keeps it and stickiness needs no code of its own, while the dead
// worker's orphans spread over the survivors by hash. Determinism: the
// assignment is a pure function of (cluster, worker set), so a restarted
// coordinator re-derives the same placement. The merged result is
// independent of placement either way — hashing only shapes who does the
// work.

// hashString is FNV-1a folded through splitmix64 — the repo's house
// string hash (backoff.SeedString), inlined for the xor-fold rendezvous
// form.
func hashString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// rendezvousScore is worker w's weight for cluster k.
func rendezvousScore(w string, k int) uint64 {
	return backoff.Splitmix64(hashString(w) ^ (uint64(k)*0x9e3779b97f4a7c15 + 0x5eed))
}

// Owner returns the worker that owns cluster k among workers (ties break
// to the lexicographically smallest name). Empty worker sets return "".
func Owner(k int, workers []string) string {
	best := ""
	var bestScore uint64
	for _, w := range workers {
		s := rendezvousScore(w, k)
		if best == "" || s > bestScore || (s == bestScore && w < best) {
			best, bestScore = w, s
		}
	}
	return best
}

// Assign partitions the clusters across the workers by rendezvous
// hashing: a map from worker to its ascending cluster indices. Workers
// with no clusters are absent from the map.
func Assign(clusters []int, workers []string) map[string][]int {
	out := make(map[string][]int, len(workers))
	sorted := append([]int(nil), clusters...)
	sort.Ints(sorted)
	for _, k := range sorted {
		w := Owner(k, workers)
		if w == "" {
			continue
		}
		out[w] = append(out[w], k)
	}
	return out
}

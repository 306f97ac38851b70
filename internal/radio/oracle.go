package radio

import (
	"fmt"
	"math"
)

// CompatibilityOracle answers whether a group of transmissions may share a
// time slot without collisions. The polling scheduler consults an oracle
// for every candidate group it considers.
type CompatibilityOracle interface {
	// Compatible reports whether the transmissions can all occur in the
	// same slot and all be decoded.
	Compatible(txs []Transmission) bool
	// MaxGroup returns the largest group size the oracle has knowledge
	// of; 0 means unbounded. The paper's head only knows compatibility of
	// groups with at most M transmissions ("M is a small positive
	// integer, such as 2 or 3"), so the scheduler never exceeds it.
	MaxGroup() int
}

// SINROracle is the ground-truth oracle backed directly by the medium's
// accumulated-interference SINR model. Unbounded group size; used as the
// physical reality the schedule is ultimately validated against.
type SINROracle struct {
	M *Medium
}

// Compatible implements CompatibilityOracle.
func (o SINROracle) Compatible(txs []Transmission) bool { return o.M.GroupCompatible(txs) }

// MaxGroup implements CompatibilityOracle.
func (o SINROracle) MaxGroup() int { return 0 }

// ProtocolOracle implements the pairwise "protocol model" the paper argues
// against: a group is declared compatible iff every pair within it is
// compatible under the ground truth. It ignores accumulated interference
// and therefore over-approximates; the ablation tests demonstrate groups
// it accepts that the SINR oracle rejects.
type ProtocolOracle struct {
	Truth CompatibilityOracle
}

// Compatible implements CompatibilityOracle.
func (o ProtocolOracle) Compatible(txs []Transmission) bool {
	if len(txs) <= 1 {
		return o.Truth.Compatible(txs)
	}
	for i := range txs {
		for j := i + 1; j < len(txs); j++ {
			if !o.Truth.Compatible([]Transmission{txs[i], txs[j]}) {
				return false
			}
		}
	}
	return true
}

// MaxGroup implements CompatibilityOracle.
func (o ProtocolOracle) MaxGroup() int { return 0 }

// MaxM is the largest group bound a TestedOracle accepts. The paper's M
// is "a small positive integer, such as 2 or 3"; four keeps the learned
// verdicts under one fixed-size, allocation-free key.
const MaxM = 4

// packedKey is an order-insensitive canonical key for a transmission
// group of at most MaxM: each transmission packed into a uint64 (From's
// low 32 bits in the high word, To's in the low word), insertion-sorted,
// unused slots at the sentinel. Truncating an id to uint32 is injective
// over every int32 id, which covers every node a medium can name; the
// only transmission that packs to the sentinel, -1 → -1, names none.
// Being a plain comparable array it is hashed by the map without any
// allocation.
type packedKey [MaxM]uint64

const packedUnused = math.MaxUint64

// packGroup canonicalizes txs, which must hold at most MaxM
// transmissions, into a packedKey.
func packGroup(txs []Transmission) (key packedKey) {
	for i := range key {
		key[i] = packedUnused
	}
	for i, t := range txs {
		v := uint64(uint32(t.From))<<32 | uint64(uint32(t.To))
		j := i
		for j > 0 && key[j-1] > v {
			key[j] = key[j-1]
			j--
		}
		key[j] = v
	}
	return key
}

// TestedOracle models the head's practical knowledge (Section V-E): it
// learns compatibility by physically testing groups of at most M
// transmissions and caches the results. Tests counts the distinct groups
// tested since construction or the last Reset, which the sector analysis
// uses ("if we divide a cluster with 80 sensors into 8 sectors ... far
// less groups need to be tested").
//
// One head owns one oracle: a TestedOracle is not safe for concurrent
// use and serves one goroutine at a time. A cluster runner keeps one per
// cluster, and parallel sweep cells each build their own.
type TestedOracle struct {
	Truth CompatibilityOracle
	M     int
	Tests int

	verdicts map[packedKey]bool
}

// NewTestedOracle wraps truth with an M-bounded testing cache. M must lie
// in [1, MaxM].
func NewTestedOracle(truth CompatibilityOracle, m int) *TestedOracle {
	checkM(m)
	return &TestedOracle{Truth: truth, M: m, verdicts: make(map[packedKey]bool)}
}

func checkM(m int) {
	if m < 1 || m > MaxM {
		panic(fmt.Sprintf("radio: TestedOracle requires 1 <= M <= %d, got %d", MaxM, m))
	}
}

// Compatible implements CompatibilityOracle. Groups larger than M are
// conservatively reported incompatible — the head has no knowledge of
// them, and the scheduler is expected never to ask. The cache-hit path is
// allocation-free.
func (o *TestedOracle) Compatible(txs []Transmission) bool {
	if len(txs) > o.M {
		return false
	}
	key := packGroup(txs)
	if v, hit := o.verdicts[key]; hit {
		return v
	}
	v := o.Truth.Compatible(txs)
	o.verdicts[key] = v
	o.Tests++
	return v
}

// Reset re-arms the oracle over a (possibly new) truth oracle and group
// bound, clearing every cached verdict and the test counter but keeping
// the map's allocated buckets. After Reset the oracle answers exactly as
// a fresh NewTestedOracle(truth, m) would: stale verdicts cannot leak
// because the cache is emptied, and Tests restarts from zero. A caller
// that keeps the oracle across a change of its truth — a cluster runner
// whose medium moved to a new radio.Medium.PowerRev — must Reset it; one
// whose truth is unchanged keeps its verdicts by not calling Reset.
func (o *TestedOracle) Reset(truth CompatibilityOracle, m int) {
	checkM(m)
	o.Truth = truth
	o.M = m
	o.Tests = 0
	clear(o.verdicts)
}

// MaxGroup implements CompatibilityOracle.
func (o *TestedOracle) MaxGroup() int { return o.M }

// TableOracle is an explicit compatibility table over pairs: a group is
// compatible iff all of its pairs are marked compatible and no sender or
// receiver repeats. It is how the NP-hardness gadgets (the TSRF of Lemma 1
// and the X1MHP auxiliary branches) specify their arbitrary interference
// patterns.
type TableOracle struct {
	pairs map[[2]string]bool
	// SingleOK lets instances mark individual transmissions as always
	// valid (default true).
	singleOK bool
}

// NewTableOracle returns an empty table oracle; single transmissions are
// compatible by default and every pair is incompatible until marked.
func NewTableOracle() *TableOracle {
	return &TableOracle{pairs: make(map[[2]string]bool), singleOK: true}
}

// AllowPair marks transmissions a and b as mutually compatible.
func (o *TableOracle) AllowPair(a, b Transmission) {
	ka, kb := txKey(a), txKey(b)
	if kb < ka {
		ka, kb = kb, ka
	}
	o.pairs[[2]string{ka, kb}] = true
}

// PairAllowed reports whether a and b were marked compatible.
func (o *TableOracle) PairAllowed(a, b Transmission) bool {
	ka, kb := txKey(a), txKey(b)
	if kb < ka {
		ka, kb = kb, ka
	}
	return o.pairs[[2]string{ka, kb}]
}

// Compatible implements CompatibilityOracle.
func (o *TableOracle) Compatible(txs []Transmission) bool {
	if len(txs) == 0 {
		return true
	}
	if len(txs) == 1 {
		return o.singleOK
	}
	for i := range txs {
		for j := i + 1; j < len(txs); j++ {
			a, b := txs[i], txs[j]
			if a.From == b.From || a.To == b.To || a.From == b.To || a.To == b.From {
				return false
			}
			if !o.PairAllowed(a, b) {
				return false
			}
		}
	}
	return true
}

// MaxGroup implements CompatibilityOracle.
func (o *TableOracle) MaxGroup() int { return 0 }

func txKey(t Transmission) string { return fmt.Sprintf("%d>%d", t.From, t.To) }

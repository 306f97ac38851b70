package radio

import "fmt"

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
// is "a small positive integer, such as 2 or 3"; four keeps a group's
// numbered links inside one uint64 key of 16-bit ids.
const MaxM = 4

// Link is a transmission's number in a link table: 1, 2, … in the order
// the table first saw each transmission. Zero names no link. A
// TestedOracle numbers the transmissions it is asked about, so a caller
// that asks about the same transmissions again and again — the greedy
// poller — numbers each once and then asks in links.
type Link uint32

// linkTable numbers transmissions densely from 1. A transmission is
// looked up by From's and To's low 32 bits packed into one uint64, which
// is injective over every int32 node id and so over every node a medium
// can name. The ids are uint32: a table would need 2^32 distinct
// transmissions, 64 GiB of them, to run out.
type linkTable struct {
	ids map[uint64]Link
	txs []Transmission // txs[l-1] is link l
}

func (t *linkTable) link(tx Transmission) Link {
	k := uint64(uint32(tx.From))<<32 | uint64(uint32(tx.To))
	if l, ok := t.ids[k]; ok {
		return l
	}
	if t.ids == nil {
		t.ids = make(map[uint64]Link)
	}
	t.txs = append(t.txs, tx)
	l := Link(len(t.txs))
	t.ids[k] = l
	return l
}

// appendTxs appends the transmissions ls number, in the order of ls.
func (t *linkTable) appendTxs(buf []Transmission, ls []Link) []Transmission {
	for _, l := range ls {
		buf = append(buf, t.txs[l-1])
	}
	return buf
}

// reset forgets every number, keeping the storage.
func (t *linkTable) reset() {
	clear(t.ids)
	t.txs = t.txs[:0]
}

// TestedOracle models the head's practical knowledge (Section V-E): it
// learns compatibility by physically testing groups of at most M
// transmissions and caches the results. Tests counts the distinct groups
// tested since construction or the last Reset, which the sector analysis
// uses ("if we divide a cluster with 80 sensors into 8 sectors ... far
// less groups need to be tested").
//
// The oracle numbers every transmission it sees (Link) and keys a
// verdict by the group's sorted link ids packed into one uint64, 64/M
// bits per id: 16 bits at M = 4, 21 at M = 3, 32 at M = 2. A group
// holding an id too wide for its field — more than 65,535 distinct
// transmissions at M = 4, more than 2,097,151 at M = 3 — keeps its
// verdict in a spill map keyed by the full ids instead. So the id space
// never fills: ids stay stable until Reset, and every verdict and the
// Tests count are the same on either side of the boundary.
//
// One head owns one oracle: a TestedOracle is not safe for concurrent
// use and serves one goroutine at a time. A cluster runner keeps one per
// cluster, and parallel sweep cells each build their own.
type TestedOracle struct {
	Truth CompatibilityOracle
	M     int
	Tests int

	table    linkTable
	width    uint   // bits per id in a packed key: 64 / M
	maxID    uint64 // the largest id a packed key holds
	verdicts map[uint64]bool
	spill    map[[MaxM]Link]bool // groups with an id above maxID
	group    []Transmission      // the miss path's transmissions
	ls       []Link              // Compatible's numbered group
}

// NewTestedOracle wraps truth with an M-bounded testing cache. M must lie
// in [1, MaxM].
func NewTestedOracle(truth CompatibilityOracle, m int) *TestedOracle {
	o := &TestedOracle{verdicts: make(map[uint64]bool)}
	o.Reset(truth, m)
	return o
}

func checkM(m int) {
	if m < 1 || m > MaxM {
		panic(fmt.Sprintf("radio: TestedOracle requires 1 <= M <= %d, got %d", MaxM, m))
	}
}

// Compatible implements CompatibilityOracle: it numbers txs and asks
// CompatibleLinks, so callers asking in transmissions and callers asking
// in links share one verdict store and one Tests count. Groups larger
// than M are conservatively reported incompatible — the head has no
// knowledge of them, and the scheduler is expected never to ask.
func (o *TestedOracle) Compatible(txs []Transmission) bool {
	if len(txs) > o.M {
		return false
	}
	o.ls = o.ls[:0]
	for _, tx := range txs {
		o.ls = append(o.ls, o.table.link(tx))
	}
	return o.CompatibleLinks(o.ls)
}

// Link returns tx's number, assigning the next one on first sight. The
// number is stable until Reset.
func (o *TestedOracle) Link(tx Transmission) Link { return o.table.link(tx) }

// CompatibleLinks is Compatible over the transmissions that ls number;
// every id must come from Link since the last Reset. A hit is one probe
// of a uint64-keyed map and allocates nothing. On a miss the oracle asks
// Truth with the transmissions in the order of ls and counts the test.
func (o *TestedOracle) CompatibleLinks(ls []Link) bool {
	if len(ls) > o.M {
		return false
	}
	ids, key, packed := o.groupKey(ls)
	var v, hit bool
	if packed {
		v, hit = o.verdicts[key]
	} else {
		v, hit = o.spill[ids]
	}
	if hit {
		return v
	}
	o.group = o.table.appendTxs(o.group[:0], ls)
	v = o.Truth.Compatible(o.group)
	if packed {
		o.verdicts[key] = v
	} else {
		if o.spill == nil {
			o.spill = make(map[[MaxM]Link]bool)
		}
		o.spill[ids] = v
	}
	o.Tests++
	return v
}

// groupKey returns the ids of ls, which holds at most M links, sorted
// ascending and zero-padded, and their packed key. Every id is at least
// 1, so the key's non-zero fields are exactly the group's ids and the
// key is order-insensitive and injective. packed is false when an id is
// too wide for its field; the group's verdict then lives in the spill
// map under ids.
func (o *TestedOracle) groupKey(ls []Link) (ids [MaxM]Link, key uint64, packed bool) {
	for i, l := range ls {
		j := i
		for j > 0 && ids[j-1] > l {
			ids[j] = ids[j-1]
			j--
		}
		ids[j] = l
	}
	w := o.width
	key = uint64(ids[0]) | uint64(ids[1])<<w | uint64(ids[2])<<(2*w) | uint64(ids[3])<<(3*w)
	packed = len(ls) == 0 || uint64(ids[len(ls)-1]) <= o.maxID
	return ids, key, packed
}

// Reset re-arms the oracle over a (possibly new) truth oracle and group
// bound, clearing every cached verdict, every link number and the test
// counter but keeping the maps' allocated storage. After Reset the
// oracle answers exactly as a fresh NewTestedOracle(truth, m) would:
// stale verdicts cannot leak because the cache is emptied, and Tests
// restarts from zero. A caller that keeps the oracle across a change of
// its truth — a cluster runner whose medium moved to a new
// radio.Medium.PowerRev — must Reset it; one whose truth is unchanged
// keeps its verdicts by not calling Reset.
func (o *TestedOracle) Reset(truth CompatibilityOracle, m int) {
	checkM(m)
	o.Truth = truth
	o.M = m
	o.Tests = 0
	o.width = uint(64 / m)
	o.maxID = ^uint64(0) >> (64 - o.width)
	o.table.reset()
	clear(o.verdicts)
	clear(o.spill)
}

// MaxGroup implements CompatibilityOracle.
func (o *TestedOracle) MaxGroup() int { return o.M }

// Numbered numbers links for an oracle that does not, so a caller that
// asks in links can ask any oracle. It keeps no verdicts: every
// CompatibleLinks asks Truth.
type Numbered struct {
	Truth CompatibilityOracle
	table linkTable
	group []Transmission
}

// Reset sets the truth and forgets every link number, keeping the
// storage.
func (o *Numbered) Reset(truth CompatibilityOracle) {
	o.Truth = truth
	o.table.reset()
}

// Link returns tx's number, assigning the next one on first sight. The
// number is stable until Reset.
func (o *Numbered) Link(tx Transmission) Link { return o.table.link(tx) }

// CompatibleLinks asks Truth about the transmissions that ls number, in
// the order of ls.
func (o *Numbered) CompatibleLinks(ls []Link) bool {
	o.group = o.table.appendTxs(o.group[:0], ls)
	return o.Truth.Compatible(o.group)
}

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

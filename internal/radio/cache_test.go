package radio

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// Property tests guarding the Medium's received-power cache: on random
// deployments and random transmission groups, the cached fast path, the
// TestedOracle, and the retained slow-path reference implementation must
// agree exactly — including after SetTxPower invalidations.

func randomMedium(rng *rand.Rand, n int, prop Propagation) *Medium {
	pos := geom.UniformDeploy(rng, geom.Square(120), n)
	m := NewMedium(prop, pos)
	for i := 0; i < n; i++ {
		m.SetTxPower(i, TxPowerForRange(prop, 20+rng.Float64()*40, DefaultRxThreshold))
	}
	return m
}

func randomGroup(rng *rand.Rand, n, size int) []Transmission {
	txs := make([]Transmission, size)
	for i := range txs {
		txs[i] = Transmission{From: rng.Intn(n), To: rng.Intn(n)}
	}
	return txs
}

// slowGroupCompatible re-derives group compatibility entirely from the
// reference power path, mirroring Receives/GroupCompatible without ever
// touching the cache.
func slowGroupCompatible(m *Medium, txs []Transmission) bool {
	for i := range txs {
		for j := i + 1; j < len(txs); j++ {
			if txs[i].From == txs[j].From {
				return false
			}
		}
	}
	for i, t := range txs {
		if t.From == t.To {
			return false
		}
		signal := m.uncachedReceivedPower(t.From, t.To)
		if signal < DefaultRxThreshold {
			return false
		}
		interference := DefaultNoiseFloor
		ok := true
		for j, o := range txs {
			if j == i {
				continue
			}
			if o.From == t.To || o.To == t.To {
				ok = false
				break
			}
			interference += m.uncachedReceivedPower(o.From, t.To)
		}
		if !ok || signal < DefaultCaptureRatio*interference {
			return false
		}
	}
	return true
}

func propModels(seed int64) []Propagation {
	ld := NewLogDistance(3.2, 1)
	ld.ShadowDB = HashShadow(seed, 4)
	return []Propagation{NewFreeSpace(), NewTwoRay(), ld}
}

func TestCachedPowerMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		for _, prop := range propModels(seed) {
			n := 10 + rng.Intn(40)
			m := randomMedium(rng, n, prop)
			check := func(stage string) {
				for tx := 0; tx < n; tx++ {
					for rx := 0; rx < n; rx++ {
						got := m.ReceivedPower(tx, rx)
						want := m.uncachedReceivedPower(tx, rx)
						if got != want {
							t.Fatalf("%T/%s: ReceivedPower(%d,%d) = %g, reference %g",
								prop, stage, tx, rx, got, want)
						}
					}
				}
			}
			check("fresh")
			// Invalidate: change random nodes' powers (including to zero,
			// the MarkFailedBatch path) and re-verify the whole matrix.
			for k := 0; k < 5; k++ {
				v := rng.Intn(n)
				if rng.Intn(3) == 0 {
					m.SetTxPower(v, 0)
				} else {
					m.SetTxPower(v, TxPowerForRange(prop, 10+rng.Float64()*60, DefaultRxThreshold))
				}
			}
			check("after SetTxPower")
		}
	}
}

func TestCachedGroupCompatibleMatchesReference(t *testing.T) {
	for _, seed := range []int64{5, 6, 7} {
		rng := rand.New(rand.NewSource(seed))
		for _, prop := range propModels(seed) {
			n := 12 + rng.Intn(30)
			m := randomMedium(rng, n, prop)
			for trial := 0; trial < 300; trial++ {
				if trial == 150 {
					// Mid-run invalidation must keep the paths agreeing.
					m.SetTxPower(rng.Intn(n), TxPowerForRange(prop, 15+rng.Float64()*50, DefaultRxThreshold))
				}
				txs := randomGroup(rng, n, 1+rng.Intn(4))
				if got, want := m.GroupCompatible(txs), slowGroupCompatible(m, txs); got != want {
					t.Fatalf("%T: GroupCompatible(%v) = %v, reference %v", prop, txs, got, want)
				}
			}
		}
	}
}

func TestTestedOracleMatchesTruthOnRandomGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomMedium(rng, 30, NewTwoRay())
	truth := SINROracle{M: m}
	o := NewTestedOracle(truth, 4)
	for trial := 0; trial < 500; trial++ {
		txs := randomGroup(rng, 30, 1+rng.Intn(4))
		if got, want := o.Compatible(txs), truth.Compatible(txs); got != want {
			t.Fatalf("TestedOracle(%v) = %v, truth %v", txs, got, want)
		}
		// Asking again in a shuffled order must hit the cache and agree.
		shuffled := append([]Transmission(nil), txs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		before := o.Tests
		if got, want := o.Compatible(shuffled), truth.Compatible(txs); got != want {
			t.Fatalf("shuffled TestedOracle(%v) = %v, truth %v", shuffled, got, want)
		}
		if o.Tests != before {
			t.Fatalf("shuffled query of %v re-tested the group", txs)
		}
	}
}

// mirrorHalf mirrors about half the node ids of g into [-n-1, -2]: any
// caller may name nodes below zero.
func mirrorHalf(rng *rand.Rand, g []Transmission) {
	for i := range g {
		if rng.Intn(2) == 0 {
			g[i].From = -g[i].From - 2
		}
		if rng.Intn(2) == 0 {
			g[i].To = -g[i].To - 2
		}
	}
}

// TestLinkKeyCanonical checks the numbered-link key is order-insensitive
// and injective on random groups of 1..MaxM, negative node ids and the
// edges of the int32 id range included.
func TestLinkKeyCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	o := NewTestedOracle(NewTableOracle(), MaxM)
	links := func(g []Transmission) []Link {
		ls := make([]Link, len(g))
		for i, tx := range g {
			ls[i] = o.Link(tx)
		}
		return ls
	}
	key := func(g []Transmission) uint64 {
		_, k, packed := o.groupKey(links(g))
		if !packed {
			t.Fatalf("group %v left the packed key", g)
		}
		return k
	}
	seen := map[uint64][]Transmission{}
	for trial := 0; trial < 2000; trial++ {
		g := randomGroup(rng, 50, 1+rng.Intn(MaxM))
		mirrorHalf(rng, g)
		k := key(g)
		shuffled := append([]Transmission(nil), g...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if key(shuffled) != k {
			t.Fatalf("link key not order-insensitive: %v vs %v", g, shuffled)
		}
		if prev, dup := seen[k]; dup && !sameMultiset(prev, g) {
			t.Fatalf("link key collision: %v and %v share %#x", prev, g, k)
		}
		seen[k] = append([]Transmission(nil), g...)
	}
	for _, pair := range [][2][]Transmission{
		{{{From: -1, To: 2}}, {{From: math.MaxInt32, To: 2}}},
		{{{From: math.MinInt32, To: 0}}, {{From: math.MaxInt32, To: 0}}},
		{{{From: 0, To: -1}}, {{From: 1, To: 0}}},
	} {
		if key(pair[0]) == key(pair[1]) {
			t.Fatalf("link key collision at the id range's edges: %v and %v", pair[0], pair[1])
		}
	}
}

// TestTestedOracleAcrossReset checks, for every M, that verdicts equal
// the truth, that a repeated or reordered group is not tested again, and
// that Reset onto another medium forgets every verdict and link number.
func TestTestedOracleAcrossReset(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	media := []*Medium{randomMedium(rng, 30, NewTwoRay()), randomMedium(rng, 30, NewFreeSpace())}
	for m := 1; m <= MaxM; m++ {
		o := NewTestedOracle(SINROracle{M: media[0]}, m)
		for round := 0; round < 4; round++ {
			truth := SINROracle{M: media[round%2]}
			if round > 0 {
				o.Reset(truth, m)
				if o.Tests != 0 {
					t.Fatalf("M=%d: Tests = %d after Reset", m, o.Tests)
				}
				if l := o.Link(Transmission{From: 29, To: 28}); l != 1 {
					t.Fatalf("M=%d: first link after Reset numbered %d", m, l)
				}
			}
			for trial := 0; trial < 300; trial++ {
				txs := randomGroup(rng, 30, 1+rng.Intn(m))
				if got, want := o.Compatible(txs), truth.Compatible(txs); got != want {
					t.Fatalf("M=%d round %d: Compatible(%v) = %v, truth %v", m, round, txs, got, want)
				}
				ls := make([]Link, len(txs))
				for i := range txs {
					ls[i] = o.Link(txs[len(txs)-1-i])
				}
				before := o.Tests
				if got, want := o.CompatibleLinks(ls), truth.Compatible(txs); got != want {
					t.Fatalf("M=%d round %d: CompatibleLinks(%v) = %v, truth %v", m, round, txs, got, want)
				}
				if o.Tests != before {
					t.Fatalf("M=%d round %d: reversed links of %v re-tested the group", m, round, txs)
				}
			}
			if over := randomGroup(rng, 30, m+1); m < MaxM && o.Compatible(over) {
				t.Fatalf("M=%d: a group of %d was reported compatible", m, m+1)
			}
		}
	}
}

// TestTestedOracleBeyondIDSpace numbers more links than a packed key's
// 16-bit fields hold at M = 4: groups with a wide id keep their verdicts
// in the spill map, and every verdict still equals the truth.
func TestTestedOracleBeyondIDSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 260 // n(n-1) = 67,340 transmissions > 65,535
	m := randomMedium(rng, n, NewTwoRay())
	truth := SINROracle{M: m}
	o := NewTestedOracle(truth, MaxM)
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from != to {
				o.Link(Transmission{From: from, To: to})
			}
		}
	}
	if got := len(o.table.txs); got <= 1<<16-1 {
		t.Fatalf("numbered only %d links", got)
	}
	for trial := 0; trial < 3000; trial++ {
		txs := randomGroup(rng, n, 1+rng.Intn(MaxM))
		if trial%2 == 0 {
			// Reach for the top of the table: the last links numbered.
			txs[0] = Transmission{From: n - 1 - rng.Intn(4), To: rng.Intn(n - 5)}
		}
		tests := o.Tests
		if got, want := o.Compatible(txs), truth.Compatible(txs); got != want {
			t.Fatalf("Compatible(%v) = %v, truth %v", txs, got, want)
		}
		if o.Tests > tests {
			shuffled := append([]Transmission(nil), txs...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got, want := o.Compatible(shuffled), truth.Compatible(txs); got != want || o.Tests != tests+1 {
				t.Fatalf("shuffled %v: %v (truth %v), %d tests", shuffled, got, want, o.Tests-tests)
			}
		}
	}
	spilled := len(o.spill)
	if spilled == 0 || len(o.verdicts) == 0 {
		t.Fatalf("packed %d and spilled %d verdicts; want both paths", len(o.verdicts), spilled)
	}
	if o.Tests != len(o.verdicts)+spilled {
		t.Fatalf("Tests = %d, want %d distinct groups", o.Tests, len(o.verdicts)+spilled)
	}
}

func sameMultiset(a, b []Transmission) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[Transmission]int{}
	for _, t := range a {
		count[t]++
	}
	for _, t := range b {
		count[t]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

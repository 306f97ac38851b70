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

// TestPackGroupCanonical checks the packed key is order-insensitive and
// injective on small random groups, negative node ids included.
func TestPackGroupCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	seen := map[packedKey][]Transmission{}
	for trial := 0; trial < 2000; trial++ {
		g := randomGroup(rng, 50, 1+rng.Intn(MaxM))
		// Mirror about half the ids into [-51, -2]: any caller may name
		// nodes below zero. Only -1 → -1 is left out; it packs to the
		// unused sentinel, and no medium names node -1.
		for i := range g {
			if rng.Intn(2) == 0 {
				g[i].From = -g[i].From - 2
			}
			if rng.Intn(2) == 0 {
				g[i].To = -g[i].To - 2
			}
		}
		key := packGroup(g)
		shuffled := append([]Transmission(nil), g...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if packGroup(shuffled) != key {
			t.Fatalf("packGroup not order-insensitive: %v vs %v", g, shuffled)
		}
		if prev, dup := seen[key]; dup && !sameMultiset(prev, g) {
			t.Fatalf("packGroup collision: %v and %v share %v", prev, g, key)
		}
		seen[key] = append([]Transmission(nil), g...)
	}
	for _, pair := range [][2][]Transmission{
		{{{From: -1, To: 2}}, {{From: math.MaxInt32, To: 2}}},
		{{{From: math.MinInt32, To: 0}}, {{From: math.MaxInt32, To: 0}}},
		{{{From: 0, To: -1}}, {{From: 1, To: 0}}},
	} {
		if packGroup(pair[0]) == packGroup(pair[1]) {
			t.Fatalf("packGroup collision at the id range's edges: %v and %v", pair[0], pair[1])
		}
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

package radio

import (
	"math"
	"math/rand"
	"sync"
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
		if signal < m.RxThreshold {
			return false
		}
		interference := m.NoiseFloor
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
		if !ok || signal < m.CaptureRatio*interference {
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

// TestTestedOraclePackedKeyFallback exercises groups the packed key cannot
// represent: negative node ids (the NP-hardness gadgets use arbitrary
// ints) and groups larger than packedGroupMax.
func TestTestedOraclePackedKeyFallback(t *testing.T) {
	o := NewTestedOracle(tableTruth{}, 8)
	neg := []Transmission{{From: -3, To: 1}}
	if !o.Compatible(neg) {
		t.Fatal("fallback path broke the truth answer")
	}
	if o.Compatible([]Transmission{{From: -3, To: 1}}); o.Tests != 1 {
		t.Fatalf("fallback cache missed: %d tests", o.Tests)
	}
	big := []Transmission{
		{From: 1, To: 2}, {From: 3, To: 4}, {From: 5, To: 6},
		{From: 7, To: 8}, {From: 9, To: 10},
	}
	o.Compatible(big)
	o.Compatible([]Transmission{big[4], big[3], big[2], big[1], big[0]})
	if o.Tests != 2 {
		t.Fatalf("big group should be one test, got %d", o.Tests)
	}
}

type tableTruth struct{}

func (tableTruth) Compatible([]Transmission) bool { return true }
func (tableTruth) MaxGroup() int                  { return 0 }

// TestTestedOracleConcurrent shares one oracle across goroutines — the
// parallel-sweep sharing mode — and checks both the answers and that
// Tests stays exact (each distinct group tested exactly once).
func TestTestedOracleConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := randomMedium(rng, 25, NewTwoRay())
	truth := SINROracle{M: m}
	o := NewTestedOracle(truth, 3)

	groups := make([][]Transmission, 200)
	distinct := make(map[packedKey]bool)
	for i := range groups {
		groups[i] = randomGroup(rng, 25, 1+rng.Intn(3))
		key, ok := packGroup(groups[i])
		if !ok {
			t.Fatal("test groups must fit the packed key")
		}
		distinct[key] = true
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i, g := range groups {
					if (i+rep+w)%3 == 0 {
						// Shuffled alias of the same group.
						gg := append([]Transmission(nil), g...)
						for k := len(gg) - 1; k > 0; k-- {
							j := (i*7 + rep*13 + k*29 + w) % (k + 1)
							gg[k], gg[j] = gg[j], gg[k]
						}
						g = gg
					}
					if got, want := o.Compatible(g), truth.Compatible(g); got != want {
						t.Errorf("concurrent Compatible(%v) = %v want %v", g, got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if o.Tests != len(distinct) {
		t.Fatalf("Tests = %d, distinct groups = %d (must stay exact under concurrency)",
			o.Tests, len(distinct))
	}
}

// TestPackGroupCanonical checks the packed key is order-insensitive and
// injective on small random groups.
func TestPackGroupCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	seen := map[packedKey][]Transmission{}
	for trial := 0; trial < 2000; trial++ {
		g := randomGroup(rng, 50, 1+rng.Intn(packedGroupMax))
		key, ok := packGroup(g)
		if !ok {
			t.Fatalf("packGroup rejected %v", g)
		}
		shuffled := append([]Transmission(nil), g...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if key2, _ := packGroup(shuffled); key2 != key {
			t.Fatalf("packGroup not order-insensitive: %v vs %v", g, shuffled)
		}
		if prev, dup := seen[key]; dup && !sameMultiset(prev, g) {
			t.Fatalf("packGroup collision: %v and %v share %v", prev, g, key)
		}
		seen[key] = append([]Transmission(nil), g...)
	}
	if _, ok := packGroup(randomGroup(rng, 10, packedGroupMax+1)); ok {
		t.Fatal("packGroup must reject oversized groups")
	}
	if _, ok := packGroup([]Transmission{{From: -1, To: 2}}); ok {
		t.Fatal("packGroup must reject negative ids")
	}
	if _, ok := packGroup([]Transmission{{From: 1, To: math.MaxInt32 + 1}}); ok {
		t.Fatal("packGroup must reject ids beyond 2^31")
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

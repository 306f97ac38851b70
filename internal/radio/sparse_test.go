package radio

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// Property tests for the sparse spatial medium: the materialized rows plus
// analytic fallback must answer exactly like the dense matrix they
// replaced — i.e. exactly like uncachedReceivedPower — on every pair, at
// every stage of a deployment's life (power changes, failures, shadowing
// revisions), and the spatial index must materialize every link any
// threshold decision can depend on.

// checkAllPairs pins ReceivedPower (and the InRange/Carries decisions
// derived from it) against the slow-path oracle for the full N x N space.
func checkAllPairs(t *testing.T, m *Medium, stage string) {
	t.Helper()
	for tx := 0; tx < m.N(); tx++ {
		for rx := 0; rx < m.N(); rx++ {
			got, want := m.ReceivedPower(tx, rx), m.uncachedReceivedPower(tx, rx)
			if got != want {
				t.Fatalf("%s: ReceivedPower(%d,%d) = %g, oracle %g", stage, tx, rx, got, want)
			}
			wantIn := tx != rx && want >= DefaultRxThreshold && want >= DefaultCaptureRatio*DefaultNoiseFloor
			if m.InRange(tx, rx) != wantIn {
				t.Fatalf("%s: InRange(%d,%d) = %v, oracle %v", stage, tx, rx, !wantIn, wantIn)
			}
			wantCarry := tx != rx && want >= DefaultCSThreshold
			if m.Carries(tx, rx) != wantCarry {
				t.Fatalf("%s: Carries(%d,%d) = %v, oracle %v", stage, tx, rx, !wantCarry, wantCarry)
			}
		}
	}
}

// TestSparseMediumAcrossShadowRevisionsAndFailures walks a LogDistance
// medium through the full churn life cycle — shadow table swaps plus
// node failures — re-verifying exact oracle agreement after each step.
func TestSparseMediumAcrossShadowRevisionsAndFailures(t *testing.T) {
	for _, seed := range []int64{101, 102} {
		rng := rand.New(rand.NewSource(seed))
		ld := NewLogDistance(3.5, 1)
		n := 30 + rng.Intn(30)
		m := randomMedium(rng, n, ld)
		checkAllPairs(t, m, "fresh")
		for rev := int64(1); rev <= 4; rev++ {
			ld.ShadowDB = HashShadow(seed*100+rev, 4)
			m.Refresh()
			checkAllPairs(t, m, "shadow rev")
			// A failure (the MarkFailedBatch path) between revisions.
			m.SetTxPower(rng.Intn(n), 0)
			checkAllPairs(t, m, "after failure")
		}
		// Group decisions stay oracle-exact at the end state too.
		for trial := 0; trial < 200; trial++ {
			txs := randomGroup(rng, n, 1+rng.Intn(4))
			if got, want := m.GroupCompatible(txs), slowGroupCompatible(m, txs); got != want {
				t.Fatalf("GroupCompatible(%v) = %v, oracle %v", txs, got, want)
			}
		}
	}
}

// TestNeighborRowsCoverThresholdLinks pins the materialization invariant
// the connectivity rebuild relies on: any pair whose received power
// reaches the lowest decision threshold must be present in the
// transmitter's row (absent pairs are guaranteed below the pair floor).
func TestNeighborRowsCoverThresholdLinks(t *testing.T) {
	for _, seed := range []int64{7, 8} {
		rng := rand.New(rand.NewSource(seed))
		for _, prop := range propModels(seed) {
			n := 20 + rng.Intn(40)
			m := randomMedium(rng, n, prop)
			minThreshold := math.Min(DefaultRxThreshold, DefaultCSThreshold)
			for tx := 0; tx < n; tx++ {
				row := m.Neighbors(tx)
				for rx := 0; rx < n; rx++ {
					if rx == tx || m.uncachedReceivedPower(tx, rx) < minThreshold {
						continue
					}
					found := false
					for _, v := range row {
						if int(v) == rx {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("%T: decodable link %d->%d missing from neighbor row", prop, tx, rx)
					}
				}
				for i := 1; i < len(row); i++ {
					if row[i-1] >= row[i] {
						t.Fatalf("row %d not strictly ascending: %v", tx, row)
					}
				}
			}
		}
	}
}

// TestMaxRangeBracketsThreshold pins the bisection contract: received
// power just inside the returned range meets the floor, just past it does
// not, for every propagation model.
func TestMaxRangeBracketsThreshold(t *testing.T) {
	for _, prop := range propModels(1) {
		for _, p := range []float64{1e-6, 1e-3, 1} {
			r := MaxRange(prop, p, DefaultRxThreshold)
			if r <= 0 || math.IsInf(r, 1) {
				t.Fatalf("%T: MaxRange(%g) = %g", prop, p, r)
			}
			if got := prop.ReceivedPower(p, r*(1-1e-9)); got < DefaultRxThreshold {
				t.Fatalf("%T: power %g just inside range %g below floor", prop, got, r)
			}
			if got := prop.ReceivedPower(p, r*(1+1e-9)); got >= DefaultRxThreshold {
				t.Fatalf("%T: power %g just past range %g meets floor", prop, got, r)
			}
		}
	}
	if r := MaxRange(NewTwoRay(), 0, DefaultRxThreshold); r != 0 {
		t.Fatalf("zero power should have zero range, got %g", r)
	}
	if r := MaxRange(NewTwoRay(), 1, 0); !math.IsInf(r, 1) {
		t.Fatalf("zero floor should have infinite range, got %g", r)
	}
}

// TestSparseMediumLargeClusterStaysSparse is the large-field memory
// contract: a 10k-node deployment materializes a small fraction of the
// N^2 pair space while still answering sampled queries oracle-exactly.
// The dense matrix this store replaced would hold 10^8 float64s (~800 MB)
// before the first query.
func TestSparseMediumLargeClusterStaysSparse(t *testing.T) {
	if testing.Short() {
		t.Skip("large-field test")
	}
	const n = 10_000
	rng := rand.New(rand.NewSource(99))
	pos := geom.UniformDeploy(rng, geom.Square(2000), n)
	prop := NewTwoRay()
	prop.Ht, prop.Hr = 0.5, 0.5
	m := NewMedium(prop, pos)
	sensorPower := TxPowerForRange(prop, 40, DefaultRxThreshold)
	for i := 0; i < n; i++ {
		m.SetTxPower(i, sensorPower)
	}
	st := m.Stats()
	if st.Pairs == 0 {
		t.Fatal("no pairs materialized")
	}
	if limit := n * n / 20; st.Pairs >= limit {
		t.Fatalf("materialized %d pairs; sparse bound is %d (N^2 = %d)", st.Pairs, limit, n*n)
	}
	for trial := 0; trial < 20_000; trial++ {
		tx, rx := rng.Intn(n), rng.Intn(n)
		if got, want := m.ReceivedPower(tx, rx), m.uncachedReceivedPower(tx, rx); got != want {
			t.Fatalf("ReceivedPower(%d,%d) = %g, oracle %g", tx, rx, got, want)
		}
	}
	// Near pairs must resolve from the rows (the perf contract: hot
	// queries inside a cluster never pay the analytic math).
	covered := 0
	for trial := 0; trial < 2000; trial++ {
		tx := rng.Intn(n)
		row := m.Neighbors(tx)
		if len(row) > 0 {
			covered++
		}
	}
	if covered < 1900 {
		t.Fatalf("only %d/2000 sampled nodes have materialized neighbors", covered)
	}
}

// TestMediumStatsTrackRefreshes pins the observability counters: Pairs
// follows row sizes through power changes and failures, Refreshed
// advances by the materialized link count on an incremental Refresh.
func TestMediumStatsTrackRefreshes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ld := NewLogDistance(3.5, 1)
	m := randomMedium(rng, 40, ld)
	st := m.Stats()
	if st.Pairs <= 0 || st.Refreshed == 0 {
		t.Fatalf("fresh medium stats: %+v", st)
	}
	before := m.Stats()
	ld.ShadowDB = HashShadow(77, 3)
	m.Refresh()
	after := m.Stats()
	if after.Pairs != before.Pairs {
		t.Fatalf("Refresh changed Pairs: %d -> %d (membership is geometric)", before.Pairs, after.Pairs)
	}
	if after.Refreshed != before.Refreshed+uint64(before.Pairs) {
		t.Fatalf("Refreshed advanced by %d, want %d (only materialized links)",
			after.Refreshed-before.Refreshed, before.Pairs)
	}
	// Killing a node empties its row and shrinks Pairs by its size.
	victim := 7
	rowLen := len(m.Neighbors(victim))
	m.SetTxPower(victim, 0)
	if got := m.Stats().Pairs; got != after.Pairs-rowLen {
		t.Fatalf("Pairs after failure = %d, want %d", got, after.Pairs-rowLen)
	}
	if len(m.Neighbors(victim)) != 0 {
		t.Fatal("failed node must have an empty row")
	}
}

// FuzzSparsePowerMatchesOracle drives random geometry, powers, path-loss
// exponents (half of them half-integers) and pair picks through the sparse
// fast path and the analytic oracle.
func FuzzSparsePowerMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(12), uint16(600))
	f.Add(int64(42), uint8(3), uint16(9))
	f.Add(int64(-7), uint8(60), uint16(33))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, pick uint16) {
		n := 2 + int(nRaw)%60
		rng := rand.New(rand.NewSource(seed))
		exp := 2.5 + rng.Float64()*2
		if rng.Intn(2) == 0 { // the half-integer fast path
			exp = []float64{2.5, 3, 3.5, 4, 4.5}[rng.Intn(5)]
		}
		ld := NewLogDistance(exp, 1)
		ld.ShadowDB = HashShadow(seed, rng.Float64()*4)
		m := randomMedium(rng, n, ld)
		if rng.Intn(2) == 0 {
			m.SetTxPower(rng.Intn(n), 0)
		}
		tx, rx := int(pick)%n, int(pick/251)%n
		if got, want := m.ReceivedPower(tx, rx), m.uncachedReceivedPower(tx, rx); got != want {
			t.Fatalf("ReceivedPower(%d,%d) = %g, oracle %g", tx, rx, got, want)
		}
	})
}

// TestHotPathAllocs is the alloc-regression guard for the query paths the
// cluster replay hammers every slot: materialized and fallback power
// lookups, group checks, and warm TestedOracle hits must all run
// allocation-free.
func TestHotPathAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ld := NewLogDistance(3.5, 1)
	ld.ShadowDB = HashShadow(13, 3)
	m := randomMedium(rng, 50, ld)

	// A materialized pair (node 0's nearest materialized neighbor) and a
	// far pair (guaranteed fallback: make one by picking the overall
	// farthest pair, beyond every cutoff in a 120 m square only if powers
	// are small — instead force it with a failed node, whose row is empty).
	m.SetTxPower(49, 0)
	var near int
	if row := m.Neighbors(0); len(row) > 0 {
		near = int(row[0])
	} else {
		t.Fatal("node 0 has no materialized neighbors")
	}
	cases := []struct {
		name   string
		tx, rx int
	}{
		{"materialized", 0, near},
		{"fallback", 49, 1}, // empty row: every query takes the analytic path
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(200, func() {
			m.ReceivedPower(c.tx, c.rx)
		}); allocs != 0 {
			t.Errorf("ReceivedPower %s pair: %v allocs/op, want 0", c.name, allocs)
		}
	}
	txs := []Transmission{{From: 1, To: 2}, {From: 5, To: 6}, {From: 9, To: 10}}
	if allocs := testing.AllocsPerRun(200, func() {
		m.GroupCompatible(txs)
	}); allocs != 0 {
		t.Errorf("GroupCompatible: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		m.Receives(txs, 0)
	}); allocs != 0 {
		t.Errorf("Receives: %v allocs/op, want 0", allocs)
	}
	o := NewTestedOracle(SINROracle{M: m}, 4)
	o.Compatible(txs) // warm the cache; the guarded path is the hit
	if allocs := testing.AllocsPerRun(200, func() {
		o.Compatible(txs)
	}); allocs != 0 {
		t.Errorf("TestedOracle hit: %v allocs/op, want 0", allocs)
	}
}

// TestCutoffHeadroom pins each row's materialization radius at the
// distance its power reaches the pair floor, 6 dB under carrier sense,
// plus the 16 dB shadow margin on a LogDistance model: 22 dB of
// headroom, which keeps every threshold link of HashShadow's ±3.465σ
// draw materialized for σ up to 6.3 dB.
func TestCutoffHeadroom(t *testing.T) {
	pos := []geom.Point{{X: 0, Y: 0}, {X: 1e4, Y: 0}} // wide bounds: no diagonal cap
	for _, tc := range []struct {
		prop  Propagation
		boost float64
	}{
		{NewTwoRay(), 1},
		{NewLogDistance(3.2, 1), math.Pow(10, 1.6)},
	} {
		m := NewMedium(tc.prop, pos)
		p := TxPowerForRange(tc.prop, 40, DefaultRxThreshold)
		m.SetTxPower(0, p)
		want := MaxRange(tc.prop, p*tc.boost, DefaultRxThreshold/80)
		if got := m.rows[0].radius; got != want {
			t.Errorf("%T: cutoff radius %v, want %v", tc.prop, got, want)
		}
	}
}

// TestCutoffIgnoresLinkShadow builds a medium on a model that already
// shadows, with link (0,0) drawn 17 dB down. The rows' radii must come
// from the shadow-free path loss: every carrier-sense link is
// materialized, and the rows equal those of a medium built unshadowed and
// then Refreshed.
func TestCutoffIgnoresLinkShadow(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	pos := geom.UniformDeploy(rng, geom.Square(1200), 600)
	hash := HashShadow(600, 6)
	shadow := func(from, to int) float64 {
		if from == 0 && to == 0 {
			return -17
		}
		return hash(from, to)
	}
	p := TxPowerForRange(NewLogDistance(3.5, 1), 25, DefaultRxThreshold)
	build := func(ld *LogDistance) *Medium {
		m := NewMedium(ld, pos)
		for i := range pos {
			m.SetTxPower(i, p)
		}
		return m
	}
	shadowed := NewLogDistance(3.5, 1)
	shadowed.ShadowDB = shadow
	m := build(shadowed)
	plain := NewLogDistance(3.5, 1)
	ref := build(plain)
	plain.ShadowDB = shadow
	ref.Refresh()

	missing, carriers := 0, 0
	for tx := range pos {
		for rx := range pos {
			if tx == rx || m.uncachedReceivedPower(tx, rx) < DefaultCSThreshold {
				continue
			}
			carriers++
			if _, ok := slices.BinarySearch(m.Neighbors(tx), int32(rx)); !ok {
				missing++
			}
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d carrier-sense links are not materialized", missing, carriers)
	}
	for tx := range pos {
		got, want := m.rows[tx], ref.rows[tx]
		if got.radius != want.radius || !slices.Equal(got.nbr, want.nbr) || !slices.Equal(got.pw, want.pw) {
			t.Fatalf("row %d: radius %v with %d links, want %v with %d", tx, got.radius, len(got.nbr), want.radius, len(want.nbr))
		}
	}
}

package radio

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestFreeSpaceMonotone(t *testing.T) {
	m := NewFreeSpace()
	last := math.Inf(1)
	for d := 1.0; d <= 1000; d *= 2 {
		p := m.ReceivedPower(0.1, d)
		if p >= last {
			t.Fatalf("free space not decreasing at d=%v", d)
		}
		last = p
	}
	if m.ReceivedPower(0.1, 0) != 0.1 {
		t.Error("d=0 should return txPower")
	}
}

func TestFreeSpaceInverseSquare(t *testing.T) {
	m := NewFreeSpace()
	p1 := m.ReceivedPower(1, 10)
	p2 := m.ReceivedPower(1, 20)
	if math.Abs(p1/p2-4) > 1e-9 {
		t.Fatalf("doubling distance should quarter power: ratio %v", p1/p2)
	}
}

func TestTwoRayCrossoverContinuity(t *testing.T) {
	m := NewTwoRay()
	dc := m.Crossover()
	if dc <= 0 {
		t.Fatal("non-positive crossover")
	}
	below := m.ReceivedPower(1, dc*0.999)
	above := m.ReceivedPower(1, dc*1.001)
	if math.Abs(below-above)/below > 0.02 {
		t.Fatalf("discontinuity at crossover: %v vs %v", below, above)
	}
}

func TestTwoRayInverseFourth(t *testing.T) {
	m := NewTwoRay()
	d := m.Crossover() * 2
	p1 := m.ReceivedPower(1, d)
	p2 := m.ReceivedPower(1, 2*d)
	if math.Abs(p1/p2-16) > 1e-9 {
		t.Fatalf("beyond crossover doubling distance should cut power 16x: %v", p1/p2)
	}
}

func TestLogDistanceShadowing(t *testing.T) {
	m := NewLogDistance(3, 1)
	base := m.ReceivedPower(1, 50)
	m.ShadowDB = func(from, to int) float64 {
		if from == 0 {
			return 10 // +10 dB
		}
		return -10
	}
	up := m.linkReceivedPower(1, 50, 0, 1)
	down := m.linkReceivedPower(1, 50, 1, 0)
	if math.Abs(up/base-10) > 1e-9 {
		t.Fatalf("+10dB shadowing should be 10x power: %v", up/base)
	}
	if math.Abs(down/base-0.1) > 1e-9 {
		t.Fatalf("-10dB shadowing should be 0.1x power: %v", down/base)
	}
	// Asymmetric links: the non-disc coverage areas the paper stresses.
	if up == down {
		t.Fatal("shadowed links should be asymmetric")
	}
}

// TestLogDistanceMatchesPow pins LogDistance's Pow-free arithmetic against
// the math.Pow formula Pr = Pt * P0 * (d0/d)^n * 10^(S/10): the powers may
// differ only in the last bits, the half-integer form must be monotone
// non-increasing in d (MaxRange's bisection relies on it), and the d <= 0
// and d < d0 branches keep their exact values.
func TestLogDistanceMatchesPow(t *testing.T) {
	const pt = 0.1
	for _, n := range []float64{2, 2.5, 3, 3.2, 3.5, 4} {
		m := NewLogDistance(n, 1)
		for _, s := range []float64{-15, -7.3, -0.4, 0, 2.9, 15} {
			m.ShadowDB = func(int, int) float64 { return s }
			for d := m.D0 / 2; d <= 5000; d *= 1.01 {
				pr := pt * m.P0Gain * math.Pow(m.D0/math.Max(d, m.D0), n)
				pr *= math.Pow(10, s/10)
				got := m.linkReceivedPower(pt, d, 3, 4)
				if rel := math.Abs(got-pr) / pr; rel > 1e-14 {
					t.Fatalf("n=%v S=%v d=%v: power %v, math.Pow formula %v (rel %.3g)", n, s, d, got, pr, rel)
				}
			}
		}
		m.ShadowDB = nil
		for _, d := range []float64{0, -1} {
			if got := m.linkReceivedPower(pt, d, 3, 4); got != pt {
				t.Errorf("n=%v: power at d=%v is %v, want the tx power %v", n, d, got, pt)
			}
		}
		for _, d := range []float64{m.D0 / 3, m.D0} {
			if got := m.linkReceivedPower(pt, d, 3, 4); got != pt*m.P0Gain {
				t.Errorf("n=%v: power at d=%v is %v, want the reference %v", n, d, got, pt*m.P0Gain)
			}
		}
	}

	for _, n := range []float64{0.5, 2, 2.5, 3, 3.5, 4, 8} {
		m := NewLogDistance(n, 1)
		for _, shadow := range []func(int, int) float64{nil, HashShadow(7, 6)} {
			m.ShadowDB = shadow
			last := math.Inf(1)
			check := func(d float64) {
				p := m.linkReceivedPower(pt, d, 3, 4)
				if p > last {
					t.Fatalf("n=%v shadowed=%v: power rises to %v at d=%v", n, shadow != nil, p, d)
				}
				last = p
			}
			for d := m.D0 / 2; d <= 5000; d *= 1 + 1e-4 {
				check(d)
			}
			// Consecutive floats, where a rounding slip would show.
			for _, d0 := range []float64{1.5, 7, 40, 333, 4321} {
				last = math.Inf(1)
				for d, i := d0, 0; i < 4096; d, i = math.Nextafter(d, math.Inf(1)), i+1 {
					check(d)
				}
			}
		}
	}
}

func TestTxPowerForRangeRoundTrip(t *testing.T) {
	for _, m := range []Propagation{NewFreeSpace(), NewTwoRay(), NewLogDistance(3.5, 1)} {
		r := 30.0
		pt := TxPowerForRange(m, r, DefaultRxThreshold)
		at := m.ReceivedPower(pt, r)
		if math.Abs(at-DefaultRxThreshold)/DefaultRxThreshold > 1e-9 {
			t.Errorf("%T: power at range %v != threshold", m, at)
		}
		if m.ReceivedPower(pt, r*1.5) >= DefaultRxThreshold {
			t.Errorf("%T: still decodable beyond range", m)
		}
	}
}

// testMedium builds a 4-node line: head(0) at origin with big power,
// sensors 1..3 spaced 25 m apart with power for a 30 m range.
func testMedium() *Medium {
	pos := []geom.Point{{X: 0, Y: 0}, {X: 25, Y: 0}, {X: 50, Y: 0}, {X: 75, Y: 0}}
	m := NewMedium(NewTwoRay(), pos)
	sensorPower := TxPowerForRange(NewTwoRay(), 30, DefaultRxThreshold)
	headPower := TxPowerForRange(NewTwoRay(), 100, DefaultRxThreshold)
	m.SetTxPower(0, headPower)
	for i := 1; i < 4; i++ {
		m.SetTxPower(i, sensorPower)
	}
	return m
}

func TestMediumInRange(t *testing.T) {
	m := testMedium()
	// Head reaches everyone.
	for i := 1; i < 4; i++ {
		if !m.InRange(0, i) {
			t.Errorf("head should reach sensor %d", i)
		}
	}
	// Sensors reach neighbors at 25 m but not 50 m.
	if !m.InRange(1, 2) || !m.InRange(2, 1) {
		t.Error("adjacent sensors should hear each other")
	}
	if m.InRange(1, 3) {
		t.Error("sensor 1 should not reach sensor 3 (50 m)")
	}
	// Heterogeneity: sensor 3 cannot reach the head directly, but the head
	// reaches sensor 3 — the asymmetry that motivates multi-hop polling.
	if m.InRange(3, 0) {
		t.Error("sensor 3 (75 m) should not reach head")
	}
	if !m.InRange(0, 3) {
		t.Error("head should reach sensor 3")
	}
	if m.InRange(2, 2) {
		t.Error("self-range must be false")
	}
}

func TestReceivesHalfDuplexAndDupReceiver(t *testing.T) {
	m := testMedium()
	// Receiver transmitting concurrently -> fail.
	txs := []Transmission{{From: 1, To: 2}, {From: 2, To: 3}}
	if m.Receives(txs, 0) {
		t.Error("half-duplex receiver must not decode while transmitting")
	}
	// Two packets to same receiver -> both fail.
	txs = []Transmission{{From: 1, To: 2}, {From: 3, To: 2}}
	if m.Receives(txs, 0) || m.Receives(txs, 1) {
		t.Error("duplicate receiver must not decode")
	}
	// Self loop.
	if m.Receives([]Transmission{{From: 1, To: 1}}, 0) {
		t.Error("self transmission must fail")
	}
}

func TestGroupCompatibleDuplicateSender(t *testing.T) {
	m := testMedium()
	txs := []Transmission{{From: 1, To: 0}, {From: 1, To: 2}}
	if m.GroupCompatible(txs) {
		t.Error("one sender cannot transmit two packets at once")
	}
}

func TestAccumulatedInterferenceBreaksPairwise(t *testing.T) {
	// The paper's Fig. 3: three transmissions pairwise compatible whose
	// accumulated interference kills the middle one. Build a geometry
	// where each interferer alone is just under the capture ratio away,
	// but two together push the middle receiver below capture.
	//
	// Receivers on a line; middle link is longer (weaker signal) so its
	// margin is thin.
	// Middle link: 15 m. Interferer distances to the middle receiver are
	// 65 m and 52 m, so each alone leaves SINR 18.8 and 12.0 (both >= 10)
	// while together 1/(1/18.8 + 1/12.0) = 7.3 < 10.
	pos := []geom.Point{
		{X: 0, Y: 0}, {X: 5, Y: 0}, // tx0 -> rx1 (strong short link)
		{X: 50, Y: 0}, {X: 65, Y: 0}, // tx2 -> rx3 (weak middle link)
		{X: 117, Y: 0}, {X: 112, Y: 0}, // tx4 -> rx5 (strong short link)
	}
	m := NewMedium(NewFreeSpace(), pos)
	p := TxPowerForRange(NewFreeSpace(), 40, DefaultRxThreshold)
	for i := 0; i < 6; i += 2 {
		m.SetTxPower(i, p)
	}
	txs := []Transmission{{From: 0, To: 1}, {From: 2, To: 3}, {From: 4, To: 5}}
	truth := SINROracle{M: m}
	pairwise := ProtocolOracle{Truth: truth}
	if !pairwise.Compatible(txs) {
		t.Skip("geometry did not produce pairwise compatibility; adjust constants")
	}
	if truth.Compatible(txs) {
		t.Fatal("expected accumulated interference to break the group " +
			"(pairwise OK but triple fails, per the paper's Fig. 3)")
	}
}

func TestTestedOracleCachesAndBounds(t *testing.T) {
	m := testMedium()
	o := NewTestedOracle(SINROracle{M: m}, 2)
	txs := []Transmission{{From: 1, To: 0}}
	o.Compatible(txs)
	o.Compatible(txs)
	if o.Tests != 1 {
		t.Fatalf("Tests = %d want 1 (cached)", o.Tests)
	}
	// Order-insensitive caching.
	a := []Transmission{{From: 1, To: 0}, {From: 3, To: 2}}
	b := []Transmission{{From: 3, To: 2}, {From: 1, To: 0}}
	o.Compatible(a)
	n := o.Tests
	o.Compatible(b)
	if o.Tests != n {
		t.Fatal("group cache should be order-insensitive")
	}
	// Groups above M are refused without testing.
	big := []Transmission{{From: 1, To: 0}, {From: 2, To: 0}, {From: 3, To: 0}}
	if o.Compatible(big) {
		t.Fatal("group above M must be incompatible")
	}
	if o.MaxGroup() != 2 {
		t.Fatalf("MaxGroup = %d", o.MaxGroup())
	}
}

func TestTestedOraclePanicsOnBadM(t *testing.T) {
	for _, m := range []int{0, MaxM + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewTestedOracle(M = %d): expected panic", m)
				}
			}()
			NewTestedOracle(SINROracle{}, m)
		}()
	}
}

func TestTableOracle(t *testing.T) {
	o := NewTableOracle()
	a := Transmission{From: 1, To: 0}
	b := Transmission{From: 2, To: 3}
	if !o.Compatible([]Transmission{a}) {
		t.Error("single transmission should be compatible")
	}
	if !o.Compatible(nil) {
		t.Error("empty group should be compatible")
	}
	if o.Compatible([]Transmission{a, b}) {
		t.Error("unmarked pair should be incompatible")
	}
	o.AllowPair(a, b)
	if !o.Compatible([]Transmission{a, b}) || !o.Compatible([]Transmission{b, a}) {
		t.Error("marked pair should be compatible both ways")
	}
	// Node-sharing pairs are always incompatible even if marked.
	c := Transmission{From: 1, To: 3}
	o.AllowPair(a, c)
	if o.Compatible([]Transmission{a, c}) {
		t.Error("shared sender must be incompatible")
	}
	// Triples require all pairs.
	d := Transmission{From: 4, To: 5}
	o.AllowPair(a, d)
	if o.Compatible([]Transmission{a, b, d}) {
		t.Error("triple missing pair {b,d} should be incompatible")
	}
	o.AllowPair(b, d)
	if !o.Compatible([]Transmission{a, b, d}) {
		t.Error("fully marked triple should be compatible")
	}
	if o.MaxGroup() != 0 {
		t.Error("table oracle is unbounded")
	}
}

func TestMediumAccessors(t *testing.T) {
	m := testMedium()
	if m.N() != 4 {
		t.Fatalf("N = %d", m.N())
	}
	if m.Pos(1) != (geom.Point{X: 25, Y: 0}) {
		t.Fatalf("Pos(1) = %v", m.Pos(1))
	}
	if m.TxPower(0) <= m.TxPower(1) {
		t.Fatal("head should have more power than a sensor")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative power")
		}
	}()
	m.SetTxPower(0, -1)
}

func TestCarries(t *testing.T) {
	m := testMedium()
	// Carrier sense reaches further than decoding.
	if !m.Carries(1, 2) {
		t.Error("adjacent sensors must sense carrier")
	}
	if m.Carries(1, 1) {
		t.Error("self carrier must be false")
	}
	// Sensor 1 at 50 m from sensor 3: not decodable but sensed (CS
	// threshold is 20x lower).
	if m.InRange(1, 3) {
		t.Error("precondition: 1 should not decode 3")
	}
	if !m.Carries(1, 3) {
		t.Error("sensor should sense carrier beyond decode range")
	}
}

func TestTransmissionString(t *testing.T) {
	if s := (Transmission{From: 3, To: 7}).String(); s != "3->7" {
		t.Errorf("String = %q", s)
	}
}

func TestOracleMaxGroups(t *testing.T) {
	if (SINROracle{}).MaxGroup() != 0 {
		t.Error("SINR oracle should be unbounded")
	}
	if (ProtocolOracle{}).MaxGroup() != 0 {
		t.Error("protocol oracle should be unbounded")
	}
}

func TestProtocolOracleSmallGroups(t *testing.T) {
	m := testMedium()
	o := ProtocolOracle{Truth: SINROracle{M: m}}
	// Empty and singleton groups defer to the truth directly.
	if !o.Compatible(nil) {
		t.Error("empty group should be compatible")
	}
	if !o.Compatible([]Transmission{{From: 1, To: 2}}) {
		t.Error("valid single transmission should be compatible")
	}
}

func TestMarginForLossRoundTrip(t *testing.T) {
	for _, p := range []float64{0.01, 0.05, 0.5, 0.9} {
		m := MarginForLoss(p)
		if got := LossFromMargin(m); math.Abs(got-p) > 1e-9 {
			t.Errorf("round trip at p=%v: margin %v -> %v", p, m, got)
		}
	}
	for _, bad := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MarginForLoss(%v) should panic", bad)
				}
			}()
			MarginForLoss(bad)
		}()
	}
}

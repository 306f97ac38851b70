package radio

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// The validity rule a verdict cache keys on: PowerRev moves on every
// transmit power and propagation change, and a group's verdict reads no
// row but its senders'.

// TestPowerRevMovesOnEveryPowerChange pins the counter: one step per
// SetTxPower — to a new value, to the same value, to 0 — and per Refresh,
// also a Refresh over rows that are all empty; no query moves it.
func TestPowerRevMovesOnEveryPowerChange(t *testing.T) {
	ld := NewLogDistance(3.2, 1)
	m := randomMedium(rand.New(rand.NewSource(1)), 12, ld)
	rev := m.PowerRev()
	if rev != 12 {
		t.Fatalf("PowerRev after 12 SetTxPower = %d, want 12", rev)
	}
	queries := func() {
		txs := []Transmission{{From: 1, To: 2}, {From: 3, To: 4}}
		_ = m.N()
		_ = m.Pos(0)
		_ = m.TxPower(1)
		_ = m.Stats()
		_ = m.Neighbors(1)
		_ = m.ReceivedPower(1, 2)
		_ = m.InRange(1, 2)
		_ = m.Carries(1, 2)
		_ = m.Quality(1, 2)
		_ = m.Receives(txs, 0)
		_ = m.GroupCompatible(txs)
		_ = NewTestedOracle(SINROracle{M: m}, 2).Compatible(txs)
	}
	steps := []struct {
		name string
		do   func()
	}{
		{"SetTxPower to a new value", func() { m.SetTxPower(3, 2*m.TxPower(3)) }},
		{"SetTxPower to the same value", func() { m.SetTxPower(3, m.TxPower(3)) }},
		{"SetTxPower to 0", func() { m.SetTxPower(5, 0) }},
		{"Refresh", func() { ld.ShadowDB = HashShadow(9, 4); m.Refresh() }},
		{"Refresh with every row empty", func() {
			for i := 0; i < m.N(); i++ {
				m.SetTxPower(i, 0)
			}
			rev = m.PowerRev() // the zeroing is not the step under test
			m.Refresh()
		}},
	}
	for _, s := range steps {
		queries()
		if got := m.PowerRev(); got != rev {
			t.Fatalf("before %s: queries moved PowerRev from %d to %d", s.name, rev, got)
		}
		s.do()
		if got := m.PowerRev(); got != rev+1 {
			t.Fatalf("%s: PowerRev = %d, want %d", s.name, got, rev+1)
		}
		rev++
	}
	if st := m.Stats(); st.Pairs != 0 {
		t.Fatalf("all powers 0 but %d pairs materialized", st.Pairs)
	}
}

// TestGroupVerdictIgnoresNonSenders is the property the coarse rule leans
// on and a finer one would need: on random media, dense and sparse, and
// random groups, setting any node's power that is not one of the group's
// senders — to 0 or to a new value — leaves GroupCompatible's verdict as
// it was. It fails if the SINR loops ever read a non-sender's row.
func TestGroupVerdictIgnoresNonSenders(t *testing.T) {
	compatible := 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prop := propModels(seed)[seed%3]
		side := []float64{120, 400}[seed%2] // full rows, then sparse ones
		n := 20 + rng.Intn(40)
		m := NewMedium(prop, geom.UniformDeploy(rng, geom.Square(side), n))
		for i := 0; i < n; i++ {
			m.SetTxPower(i, TxPowerForRange(prop, 20+rng.Float64()*60, DefaultRxThreshold))
		}
		for g := 0; g < 60; g++ {
			txs := senderGroup(rng, m, 1+rng.Intn(4))
			want := m.GroupCompatible(txs)
			if want && len(txs) > 1 {
				compatible++
			}
			senders := make(map[int]bool, len(txs))
			for _, tx := range txs {
				senders[tx.From] = true
			}
			for v := 0; v < n; v++ {
				if senders[v] {
					continue
				}
				old := m.TxPower(v)
				for _, w := range []float64{0, old * (0.1 + 5*rng.Float64())} {
					m.SetTxPower(v, w)
					if got := m.GroupCompatible(txs); got != want {
						t.Fatalf("seed %d group %v: verdict %v after node %d's power %g -> %g, want %v",
							seed, txs, got, v, old, w, want)
					}
				}
				m.SetTxPower(v, old)
			}
		}
	}
	if compatible < 20 {
		t.Fatalf("only %d compatible multi-transmission groups drawn; the property is not exercised", compatible)
	}
}

// senderGroup draws a group of distinct senders, each sending to a node
// it reaches when one exists (so that multi-transmission groups are
// sometimes compatible) and to any node otherwise.
func senderGroup(rng *rand.Rand, m *Medium, size int) []Transmission {
	n := m.N()
	txs := make([]Transmission, 0, size)
	used := make(map[int]bool, size)
	for len(txs) < size {
		from := rng.Intn(n)
		if used[from] {
			continue
		}
		used[from] = true
		to := rng.Intn(n)
		for _, v := range rng.Perm(n) {
			if m.InRange(from, v) {
				to = v
				break
			}
		}
		txs = append(txs, Transmission{From: from, To: to})
	}
	return txs
}

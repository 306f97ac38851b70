package radio

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func benchMedium(n int, seed int64) *Medium {
	rng := rand.New(rand.NewSource(seed))
	pos := geom.UniformDeploy(rng, geom.Square(100), n)
	m := NewMedium(NewTwoRay(), pos)
	p := TxPowerForRange(NewTwoRay(), 30, DefaultRxThreshold)
	for i := 0; i < n; i++ {
		m.SetTxPower(i, p)
	}
	return m
}

func BenchmarkGroupCompatible3(b *testing.B) {
	m := benchMedium(60, 1)
	txs := []Transmission{{From: 0, To: 1}, {From: 10, To: 11}, {From: 20, To: 21}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.GroupCompatible(txs)
	}
}

func BenchmarkTestedOracleCached(b *testing.B) {
	m := benchMedium(60, 3)
	o := NewTestedOracle(SINROracle{M: m}, 3)
	txs := []Transmission{{From: 0, To: 1}, {From: 10, To: 11}}
	o.Compatible(txs) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Compatible(txs)
	}
}

func BenchmarkConnectivityGraph(b *testing.B) {
	m := benchMedium(80, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		for u := 0; u < m.N(); u++ {
			for v := u + 1; v < m.N(); v++ {
				if m.InRange(u, v) && m.InRange(v, u) {
					count++
				}
			}
		}
		if count == 0 {
			b.Fatal("no links")
		}
	}
}

func BenchmarkQuality(b *testing.B) {
	m := benchMedium(40, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Quality(i%39, (i+1)%40)
	}
}

// benchLargeMedium is a 10k-node sparse deployment under log-distance
// shadowing — the refresh micro-benchmark fixture. Cutoffs materialize a
// few percent of the pair space; the dense predecessor would hold 10^8
// entries.
func benchLargeMedium(b *testing.B) (*Medium, *LogDistance) {
	b.Helper()
	const n = 10_000
	rng := rand.New(rand.NewSource(4242))
	pos := geom.UniformDeploy(rng, geom.Square(4000), n)
	ld := NewLogDistance(3.5, 1)
	m := NewMedium(ld, pos)
	p := TxPowerForRange(ld, 40, DefaultRxThreshold)
	for i := 0; i < n; i++ {
		m.SetTxPower(i, p)
	}
	ld.ShadowDB = HashShadow(1, 3)
	m.Refresh()
	return m, ld
}

// BenchmarkMediumRefresh10k measures a full shadowing refresh of a
// 10k-node medium: O(materialized links), the incremental-refresh path a
// field shadow shift pays per cluster.
func BenchmarkMediumRefresh10k(b *testing.B) {
	m, ld := benchLargeMedium(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ld.ShadowDB = HashShadow(int64(i), 3)
		m.Refresh()
	}
	b.ReportMetric(float64(m.Stats().Pairs), "pairs")
}

// BenchmarkMediumSetTxPower10k measures one node's row rebuild on a
// 10k-node medium — the MarkFailedBatch/power-change path, O(neighborhood).
func BenchmarkMediumSetTxPower10k(b *testing.B) {
	m, _ := benchLargeMedium(b)
	p := m.TxPower(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := 1 + i%(m.N()-1)
		if i%2 == 0 {
			m.SetTxPower(v, 0)
		} else {
			m.SetTxPower(v, p)
		}
	}
}

// BenchmarkReceivedPowerFallback10k measures the analytic far-pair path:
// node 0 against a node beyond its cutoff (binary search miss + direct
// propagation math). Must stay allocation-free.
func BenchmarkReceivedPowerFallback10k(b *testing.B) {
	m, _ := benchLargeMedium(b)
	// Find a pair guaranteed non-materialized: the row is sorted, so pick
	// the largest id absent from node 0's row.
	far := -1
	row := m.Neighbors(0)
	for rx := m.N() - 1; rx > 0; rx-- {
		present := false
		for _, v := range row {
			if int(v) == rx {
				present = true
				break
			}
		}
		if !present {
			far = rx
			break
		}
	}
	if far < 0 {
		b.Fatal("node 0 materializes every pair; enlarge the fixture")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ReceivedPower(0, far)
	}
}

package radio

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// pairFloorDivisor sets the medium's pair floor below its lowest decision
// threshold: links whose received power can reach min(RxThreshold,
// CSThreshold)/pairFloorDivisor (6 dB of slack) are materialized, so
// every threshold decision — and the dominant interference terms weighed
// against the capture ratio — resolves from the sparse store, while
// weaker pairs take the analytic fallback.
const pairFloorDivisor = 4

// DefaultShadowMarginDB is the cutoff headroom reserved for per-link
// shadowing on a LogDistance model. Together with the pair floor's 6 dB
// it gives 22 dB of materialization headroom; HashShadow's Irwin-Hall
// draw is bounded by ±3.465 sigma, so sigma up to ~6.3 dB is covered. A
// custom ShadowDB that can boost links by more should raise
// Medium.ShadowMarginDB before transmit powers are assigned. (Keeping the
// margin tight matters: every extra 10 dB inflates each node's cutoff
// disc — and the materialized pair count — by 10^(2/n) in area for a
// path-loss exponent n.)
const DefaultShadowMarginDB = 16

// Medium is the shared wireless channel: node positions, per-node transmit
// powers, a propagation model, and SINR-based reception with accumulated
// interference.
//
// Positions and the propagation model are fixed per deployment. Instead of
// materializing the full N x N received-power matrix (which caps field
// size at a few thousand nodes — 10k sensors would need ~800 MB), the
// Medium keeps a sparse, spatially indexed store: a uniform grid hash over
// positions feeds per-node neighbor rows that hold received powers only
// for geometrically relevant pairs (those whose power can reach the pair
// floor, a margin below the lowest decision threshold). Queries for
// materialized pairs are a binary search in the transmitter's row — or a
// direct index when the row covers every node, the dense small-cluster
// regime, which keeps SINR loops at the retired matrix's O(1); far
// pairs fall back to the analytic propagation math (uncachedReceivedPower),
// so every answer — including sub-floor interference terms — is exactly
// the value the dense matrix held. The property tests in cache_test.go and
// sparse_test.go pin that equivalence.
//
// Refresh is incremental: SetTxPower rebuilds only the affected node's
// row, and Refresh after a propagation-model mutation (a shadowing shift)
// re-derives only the materialized links instead of all N^2 entries.
// Once the powers are set, all query methods are safe for concurrent use
// by multiple goroutines; SetTxPower/Refresh must not race with queries.
type Medium struct {
	prop    Propagation
	ld      *LogDistance // prop when log-distance: allocation-free shadowed fallback
	pos     []geom.Point
	txPower []float64

	rows   []mediumRow
	grid   cellGrid
	bounds geom.Rect
	diag   float64 // bounds diagonal: hard cap on any cutoff radius

	// cutoffRange memo: applyPowers-style loops set the same power on
	// every sensor, so the bisection runs once per distinct power.
	memoPower, memoFloor, memoRadius float64

	pairs     int    // materialized directed links, kept current by refreshRow
	refreshed uint64 // cumulative link power recomputations
	powerRev  uint64 // see PowerRev

	RxThreshold  float64 // minimum received power for decoding, watts
	CaptureRatio float64 // linear SINR required to capture
	NoiseFloor   float64 // ambient noise, watts
	CSThreshold  float64 // carrier-sense threshold, watts (for CSMA MACs)
	// ShadowMarginDB widens each node's materialization cutoff to absorb
	// per-link shadowing boosts (only consulted for LogDistance models).
	// Set it before transmit powers are assigned; rows built earlier keep
	// their cutoffs until the next SetTxPower. Raising it never changes
	// any answer — far pairs are answered analytically either way — it
	// only moves pairs between the cached and fallback paths.
	ShadowMarginDB float64
}

// mediumRow is one transmitter's materialized slice of the power matrix:
// CSR-style parallel arrays of ascending receiver ids and the received
// power at each, covering every receiver within the node's cutoff radius.
type mediumRow struct {
	radius float64
	nbr    []int32
	pw     []float64
	// full marks a row that materialized every node — the dense
	// small-cluster regime — so lookups can index directly instead of
	// binary-searching: nbr is then exactly [0..n-1], with a zero-power
	// self entry so pw[rx] needs no index adjustment.
	full bool
}

// NewMedium returns a Medium over the given node positions. All nodes
// start with zero transmit power; set them with SetTxPower.
func NewMedium(prop Propagation, pos []geom.Point) *Medium {
	m := &Medium{
		prop:           prop,
		pos:            append([]geom.Point(nil), pos...),
		txPower:        make([]float64, len(pos)),
		rows:           make([]mediumRow, len(pos)),
		RxThreshold:    DefaultRxThreshold,
		CaptureRatio:   DefaultCaptureRatio,
		NoiseFloor:     DefaultNoiseFloor,
		CSThreshold:    DefaultRxThreshold / 20,
		ShadowMarginDB: DefaultShadowMarginDB,
	}
	m.ld, _ = prop.(*LogDistance)
	m.bounds = boundsOf(m.pos)
	m.diag = m.bounds.Diagonal()
	return m // all powers are zero, so the empty rows are already correct
}

// boundsOf returns the bounding box of the deployment.
func boundsOf(pos []geom.Point) geom.Rect {
	if len(pos) == 0 {
		return geom.Rect{}
	}
	b := geom.Rect{MinX: pos[0].X, MinY: pos[0].Y, MaxX: pos[0].X, MaxY: pos[0].Y}
	for _, p := range pos[1:] {
		b.MinX = math.Min(b.MinX, p.X)
		b.MinY = math.Min(b.MinY, p.Y)
		b.MaxX = math.Max(b.MaxX, p.X)
		b.MaxY = math.Max(b.MaxY, p.Y)
	}
	return b
}

// N returns the number of nodes on the medium.
func (m *Medium) N() int { return len(m.pos) }

// Pos returns the position of node i.
func (m *Medium) Pos(i int) geom.Point { return m.pos[m.checkNode(i)] }

// SetTxPower sets node i's transmit power in watts and rebuilds the
// node's materialized neighbor row — O(neighborhood), not O(N): reverse
// entries (what i hears from others) do not depend on i's power and stay
// untouched.
func (m *Medium) SetTxPower(i int, watts float64) {
	if watts < 0 {
		panic("radio: negative tx power")
	}
	m.txPower[m.checkNode(i)] = watts
	m.refreshRow(i)
	m.powerRev++
}

// PowerRev is the medium's revision: it counts the SetTxPower calls
// (including those setting 0) and Refresh passes since construction; no
// query moves it. Every received power, materialized or analytic, is a
// function of positions, transmit powers and the propagation model, and
// the last two change only through SetTxPower and Refresh (a mutated
// model is Refreshed before the next query, and the decision thresholds
// are fixed once powers are assigned). So while PowerRev holds, every
// answer the medium gives — every GroupCompatible verdict included —
// stays the same, and a verdict cache keyed on the medium and PowerRev
// never goes stale.
//
// The rule is deliberately coarse: a Refresh moves it even over empty
// rows, where Stats().Refreshed stays put but analytic far-pair powers
// still change, and so does a SetTxPower on a node no cached group
// sends from.
func (m *Medium) PowerRev() uint64 { return m.powerRev }

// TxPower returns node i's transmit power in watts.
func (m *Medium) TxPower(i int) float64 { return m.txPower[m.checkNode(i)] }

// MediumStats reports the sparse store's size and churn for observability.
type MediumStats struct {
	// Pairs is the number of directed links currently materialized —
	// the sparse medium's memory footprint in row entries (compare N^2
	// for the dense matrix this store replaced).
	Pairs int
	// Refreshed counts link power recomputations since construction:
	// row rebuilds from SetTxPower plus incremental Refresh passes.
	Refreshed uint64
}

// Stats returns the materialization counters. Like every query it must not
// race with SetTxPower/Refresh.
func (m *Medium) Stats() MediumStats {
	return MediumStats{Pairs: m.pairs, Refreshed: m.refreshed}
}

// Neighbors returns the ascending ids of the receivers materialized for
// transmitter i: every node that could decode or carrier-sense i (cutoff
// includes the shadowing margin), and then some. Connectivity builders
// iterate these rows instead of scanning all pairs. The slice is owned by
// the Medium — callers must not modify it, and it is valid only until the
// next SetTxPower on i.
func (m *Medium) Neighbors(i int) []int32 {
	return m.rows[m.checkNode(i)].nbr
}

// Refresh re-derives the received powers of every materialized link from
// the propagation model. It is only needed when the model itself is
// mutated after the Medium is built (e.g. installing a ShadowDB on a
// shared LogDistance); SetTxPower keeps the rows current on its own.
// Cost is O(materialized links) — failed nodes have empty rows and cost
// nothing — not O(N^2) as with the retired dense matrix. Row membership
// is fixed by geometry and transmit power, so a model mutation within the
// shadow margin never requires re-indexing.
func (m *Medium) Refresh() {
	for tx := range m.rows {
		row := &m.rows[tx]
		for j, rx := range row.nbr {
			row.pw[j] = m.uncachedReceivedPower(tx, int(rx))
		}
		m.refreshed += uint64(len(row.nbr))
	}
	m.powerRev++
}

// refreshRow recomputes node tx's cutoff radius and rebuilds its
// materialized row from the spatial index.
func (m *Medium) refreshRow(tx int) {
	row := &m.rows[tx]
	m.pairs -= len(row.nbr)
	row.nbr = row.nbr[:0]
	row.pw = row.pw[:0]
	row.radius = m.cutoffRange(tx)
	if row.radius > 0 && len(m.pos) > 1 {
		m.ensureGrid(row.radius)
		row.nbr = m.grid.appendWithin(m.pos, m.pos[tx], row.radius, int32(tx), row.nbr)
		// Near-full disc: materialize every node — including the
		// transmitter itself, whose self-entry is 0 — so the row
		// qualifies for power()'s O(1) full-row path (a bare pw[rx], no
		// index adjustment). Membership stays a pure function of
		// positions and radius, the extra entries hold the same
		// oracle-derived powers, and the inflation is bounded (at most
		// ~1/7 more entries, and only in the dense small-cluster regime —
		// large sparse fields never come near the cut).
		if n := len(m.pos) - 1; len(row.nbr) >= n-n/8 {
			row.nbr = row.nbr[:0]
			for v := range m.pos {
				row.nbr = append(row.nbr, int32(v))
			}
		}
		sortInt32(row.nbr)
		for _, rx := range row.nbr {
			row.pw = append(row.pw, m.uncachedReceivedPower(tx, int(rx)))
		}
	}
	m.pairs += len(row.nbr)
	m.refreshed += uint64(len(row.nbr))
	row.full = len(row.nbr) == len(m.pos)
}

// pairFloor is the weakest received power worth materializing: a margin
// below the lowest threshold any decision compares against.
func (m *Medium) pairFloor() float64 {
	f := m.RxThreshold
	if m.CSThreshold < f {
		f = m.CSThreshold
	}
	return f / pairFloorDivisor
}

// cutoffRange returns node tx's materialization radius: the distance out
// to which its signal (boosted by the shadow margin when the model can
// shadow) can still reach the pair floor, capped at the deployment
// diagonal. Pairs beyond it are answered analytically.
func (m *Medium) cutoffRange(tx int) float64 {
	p := m.txPower[tx]
	if p <= 0 {
		return 0
	}
	if m.ld != nil && m.ShadowMarginDB > 0 {
		p *= math.Pow(10, m.ShadowMarginDB/10)
	}
	floor := m.pairFloor()
	if p == m.memoPower && floor == m.memoFloor {
		return m.memoRadius
	}
	r := MaxRange(m.prop, p, floor)
	if max := m.diag + 1; r > max {
		r = max
	}
	m.memoPower, m.memoFloor, m.memoRadius = p, floor, r
	return r
}

// ensureGrid (re)builds the spatial index when none exists yet or when a
// node's cutoff radius shrank well below the current cell size (the grid
// only ever refines — rebuilt at most a handful of times per deployment,
// e.g. once for the head's power and once for the sensors').
func (m *Medium) ensureGrid(r float64) {
	if m.grid.cell > 0 && r >= m.grid.cell/2 {
		return
	}
	// Bound the cell count by ~4N so grid memory stays linear in the
	// deployment even for tiny radii.
	side := 2 * math.Sqrt(float64(len(m.pos)))
	extent := math.Max(m.bounds.Width(), m.bounds.Height())
	cell := math.Max(r, extent/side)
	if cell <= 0 {
		cell = 1
	}
	m.grid.build(m.pos, m.bounds, cell)
}

func (m *Medium) checkNode(i int) int {
	if uint(i) >= uint(len(m.pos)) {
		panicNode(i, len(m.pos))
	}
	return i
}

//go:noinline
func panicNode(i, n int) {
	panic(fmt.Sprintf("radio: node %d out of range [0,%d)", i, n))
}

// uncachedReceivedPower is the slow-path reference implementation: it
// re-derives the link's received power from positions and the propagation
// model on every call. refreshRow populates the sparse rows from it, far
// pairs are answered by it directly, and the property tests compare the
// materialized fast path against it to guard the rows against staleness.
func (m *Medium) uncachedReceivedPower(tx, rx int) float64 {
	if tx == rx {
		return 0
	}
	d := m.pos[tx].Dist(m.pos[rx])
	if m.ld != nil {
		return m.ld.linkReceivedPower(m.txPower[tx], d, tx, rx)
	}
	return m.prop.ReceivedPower(m.txPower[tx], d)
}

// power returns the received power for a validated pair: direct index
// when the transmitter materialized every other node (dense small-cluster
// regime — this keeps the SINR inner loops at the retired matrix's O(1);
// the wrapper is loop-free so it inlines into them), binary search
// otherwise, analytic fallback beyond the cutoff.
func (m *Medium) power(tx, rx int) float64 {
	row := &m.rows[tx]
	if row.full {
		return row.pw[rx] // self entry is 0, so tx == rx needs no guard
	}
	return m.powerSparse(tx, rx)
}

// powerSparse is the partial-row path: binary search in the transmitter's
// materialized row, analytic fallback beyond the cutoff.
func (m *Medium) powerSparse(tx, rx int) float64 {
	nbr := m.rows[tx].nbr
	lo, hi := 0, len(nbr)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nbr[mid] < int32(rx) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nbr) && nbr[lo] == int32(rx) {
		return m.rows[tx].pw[lo]
	}
	return m.uncachedReceivedPower(tx, rx)
}

// ReceivedPower returns the power node rx hears from node tx transmitting
// at its configured power, in watts.
func (m *Medium) ReceivedPower(tx, rx int) float64 {
	m.checkNode(tx)
	m.checkNode(rx)
	return m.power(tx, rx)
}

// InRange reports whether rx can decode tx's signal in a quiet channel
// (received power at or above the reception threshold plus noise margin).
// This is the "can reliably communicate with" relation used to build the
// cluster connectivity graph.
func (m *Medium) InRange(tx, rx int) bool {
	if tx == rx {
		return false
	}
	pr := m.ReceivedPower(tx, rx)
	return pr >= m.RxThreshold && pr >= m.CaptureRatio*m.NoiseFloor
}

// Carries reports whether rx senses carrier from tx (for CSMA MACs).
func (m *Medium) Carries(tx, rx int) bool {
	if tx == rx {
		return false
	}
	return m.ReceivedPower(tx, rx) >= m.CSThreshold
}

// Transmission is one intended packet transfer on the medium.
type Transmission struct {
	From, To int
}

// String implements fmt.Stringer.
func (t Transmission) String() string { return fmt.Sprintf("%d->%d", t.From, t.To) }

// Receives decides whether the transmission txs[i] is successfully decoded
// when all the transmissions in txs are concurrent, using SINR with
// accumulated interference: the intended signal must meet the reception
// threshold and exceed CaptureRatio times (noise + the sum of all other
// concurrent signals heard at the receiver). A receiver that is itself
// transmitting, or that is the target of two concurrent transmissions,
// never decodes (sensors are half-duplex single-radio devices).
func (m *Medium) Receives(txs []Transmission, i int) bool {
	// Validate every endpoint once up front (the GroupCompatible pattern)
	// so the interference loop is pure power arithmetic.
	for j := range txs {
		m.checkNode(txs[j].From)
		m.checkNode(txs[j].To)
	}
	t := txs[i]
	if t.From == t.To {
		return false
	}
	// power()'s full-row fast path, by hand: the call does not inline and
	// SINR decisions are the medium's hot path.
	rows := m.rows
	var signal float64
	if row := &rows[t.From]; row.full {
		signal = row.pw[t.To]
	} else {
		signal = m.powerSparse(t.From, t.To)
	}
	if signal < m.RxThreshold {
		return false
	}
	col := t.To
	interference := m.NoiseFloor
	for j := range txs {
		if j == i {
			continue
		}
		o := txs[j]
		if o.From == col {
			return false // half duplex: receiver is transmitting
		}
		if o.To == col {
			return false // two packets addressed to the same receiver
		}
		if row := &rows[o.From]; row.full { // power()'s fast path again
			interference += row.pw[col]
		} else {
			interference += m.powerSparse(o.From, col)
		}
	}
	return signal >= m.CaptureRatio*interference
}

// GroupCompatible reports whether every transmission in txs succeeds when
// all are concurrent. This is the ground truth the cluster head's testing
// protocol observes. Duplicate senders in the group are incompatible (a
// node cannot send two packets at once).
//
// The body repeats the Receives SINR rule inline rather than calling it
// per transmission: nodes are validated once up front, so the inner loops
// are pure power arithmetic. The property tests in cache_test.go hold the
// two paths to the exact same answers.
func (m *Medium) GroupCompatible(txs []Transmission) bool {
	for i := range txs {
		t := txs[i]
		m.checkNode(t.From)
		m.checkNode(t.To)
		if t.From == t.To {
			return false
		}
		for j := i + 1; j < len(txs); j++ {
			if t.From == txs[j].From {
				return false
			}
		}
	}
	threshold, capture, noise := m.RxThreshold, m.CaptureRatio, m.NoiseFloor
	rows := m.rows
	for i := range txs {
		t := txs[i]
		// power()'s full-row fast path, by hand — see Receives.
		var signal float64
		if row := &rows[t.From]; row.full {
			signal = row.pw[t.To]
		} else {
			signal = m.powerSparse(t.From, t.To)
		}
		if signal < threshold {
			return false
		}
		col := t.To
		interference := noise
		for j := range txs {
			if j == i {
				continue
			}
			o := txs[j]
			if o.From == col || o.To == col {
				return false // half duplex / two packets at one receiver
			}
			if row := &rows[o.From]; row.full { // power()'s fast path again
				interference += row.pw[col]
			} else {
				interference += m.powerSparse(o.From, col)
			}
		}
		if signal < capture*interference {
			return false
		}
	}
	return true
}

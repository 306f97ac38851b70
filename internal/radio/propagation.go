// Package radio models the wireless physical layer: propagation (free
// space, two-ray ground — the model the paper's NS-2 setup uses — and
// log-distance shadowing), SINR-based packet reception with *accumulated*
// interference, and the compatibility oracles the cluster head uses to
// decide which groups of transmissions may share a time slot.
//
// The paper explicitly rejects the pairwise "protocol model" because a
// group of pairwise-compatible transmissions can still collide when their
// interference accumulates (its Fig. 3), and rejects pure power-law decay
// because measured signal power at long range is arbitrary. This package
// therefore exposes reception as a function of the full concurrent
// transmission set, and lets the head learn compatibility only by testing
// groups of bounded size M (the TestedOracle).
package radio

import (
	"math"
)

// Physical constants and NS-2-compatible defaults.
const (
	// DefaultFrequency is the carrier frequency in Hz (914 MHz WaveLAN,
	// the classic NS-2 default the paper's setup inherits).
	DefaultFrequency = 914e6
	// SpeedOfLight in m/s.
	SpeedOfLight = 299792458.0
	// DefaultAntennaHeight is the NS-2 default antenna height in meters.
	DefaultAntennaHeight = 1.5
	// DefaultRxThreshold is the NS-2 default reception power threshold in
	// watts (RXThresh_).
	DefaultRxThreshold = 3.652e-10
	// DefaultCaptureRatio is the linear SINR required to capture a packet
	// over accumulated interference (NS-2 CPThresh_ = 10 dB).
	DefaultCaptureRatio = 10.0
	// DefaultNoiseFloor is the ambient noise power in watts; small against
	// DefaultRxThreshold so that noise alone never blocks an in-range link.
	DefaultNoiseFloor = 1e-13
	// DefaultCSThreshold is the carrier-sense threshold in watts (for
	// CSMA MACs), 13 dB below DefaultRxThreshold.
	DefaultCSThreshold = DefaultRxThreshold / 20
)

// Propagation computes received power as a function of transmit power and
// distance. Implementations must be monotonically non-increasing in
// distance for d > 0.
type Propagation interface {
	// ReceivedPower returns the power in watts at distance d meters when
	// transmitting at txPower watts.
	ReceivedPower(txPower, d float64) float64
}

// FreeSpace is the Friis free-space model: Pr = Pt Gt Gr lambda^2 /
// ((4 pi)^2 d^2 L).
type FreeSpace struct {
	Gt, Gr float64 // antenna gains (default 1)
	Lambda float64 // wavelength in meters
	L      float64 // system loss (default 1)
}

// NewFreeSpace returns a FreeSpace model at the default frequency with
// unity gains and loss.
func NewFreeSpace() *FreeSpace {
	return &FreeSpace{Gt: 1, Gr: 1, Lambda: SpeedOfLight / DefaultFrequency, L: 1}
}

// ReceivedPower implements Propagation.
func (m *FreeSpace) ReceivedPower(txPower, d float64) float64 {
	if d <= 0 {
		return txPower
	}
	den := 16 * math.Pi * math.Pi * d * d * m.L
	return txPower * m.Gt * m.Gr * m.Lambda * m.Lambda / den
}

// TwoRay is the two-ray ground-reflection model used by the paper's NS-2
// setup: free space up to the crossover distance, then Pr = Pt Gt Gr
// ht^2 hr^2 / d^4.
type TwoRay struct {
	Gt, Gr float64 // antenna gains
	Ht, Hr float64 // antenna heights in meters
	Lambda float64 // wavelength in meters
	L      float64 // system loss
}

// NewTwoRay returns a TwoRay model with the NS-2 defaults (1.5 m antennas,
// 914 MHz, unity gains and loss).
func NewTwoRay() *TwoRay {
	return &TwoRay{
		Gt: 1, Gr: 1,
		Ht: DefaultAntennaHeight, Hr: DefaultAntennaHeight,
		Lambda: SpeedOfLight / DefaultFrequency,
		L:      1,
	}
}

// Crossover returns the distance at which the two-ray model departs from
// free space: dc = 4 pi ht hr / lambda.
func (m *TwoRay) Crossover() float64 {
	return 4 * math.Pi * m.Ht * m.Hr / m.Lambda
}

// ReceivedPower implements Propagation.
func (m *TwoRay) ReceivedPower(txPower, d float64) float64 {
	if d <= 0 {
		return txPower
	}
	if d < m.Crossover() {
		den := 16 * math.Pi * math.Pi * d * d * m.L
		return txPower * m.Gt * m.Gr * m.Lambda * m.Lambda / den
	}
	return txPower * m.Gt * m.Gr * m.Ht * m.Ht * m.Hr * m.Hr / (d * d * d * d * m.L)
}

// LogDistance is a log-distance path-loss model with deterministic
// per-link shadowing, approximating the "arbitrary" received powers the
// paper cites from real measurements: Pr = Pt * (d0/d)^n * 10^(S/10) where
// S is a per-link shadowing offset in dB supplied by the caller.
//
// The arithmetic avoids math.Pow, which costs an Exp and a Log, on the
// common path: for a half-integer exponent n = k/2 (k in [0, 16]) the path
// gain with r = d0/d is r·r·…·r (⌊k/2⌋ factors) times math.Sqrt(r) when k
// is odd, and the shadowing factor is math.Exp(S·ln10/10). Other exponents
// keep math.Pow. Powers differ from math.Pow's only in the last bits, and
// the half-integer form is monotone non-increasing in d by construction —
// a product of monotone, correctly rounded operations — which MaxRange's
// bisection relies on and math.Pow does not promise.
type LogDistance struct {
	Exponent float64 // path loss exponent n (2 free space, ~4 urban)
	D0       float64 // reference distance in meters
	P0Gain   float64 // gain at reference distance (fraction of Pt)
	// ShadowDB returns the shadowing offset in dB for the ordered link
	// (from, to). A nil function means no shadowing. Keeping shadowing a
	// function of the link (not of time) makes runs reproducible while
	// still giving the oddly-shaped, non-disc coverage areas the paper
	// stresses.
	ShadowDB func(from, to int) float64
}

// NewLogDistance returns a log-distance model calibrated so that its
// received power matches free space at the reference distance d0.
func NewLogDistance(exponent, d0 float64) *LogDistance {
	fs := NewFreeSpace()
	return &LogDistance{
		Exponent: exponent,
		D0:       d0,
		P0Gain:   fs.ReceivedPower(1, d0),
	}
}

// ReceivedPower implements Propagation. Without a link it applies the
// shadowing of the ordered link (0, 0).
func (m *LogDistance) ReceivedPower(txPower, d float64) float64 {
	return m.linkReceivedPower(txPower, d, 0, 0)
}

// linkReceivedPower is ReceivedPower for an explicit ordered link. The
// Medium's materialized rows and its analytic fallback both come from
// uncachedReceivedPower, which calls it directly, so the two agree bit
// for bit — the sparse-medium property tests rely on that.
func (m *LogDistance) linkReceivedPower(txPower, d float64, from, to int) float64 {
	if d <= 0 {
		return txPower
	}
	if d < m.D0 {
		d = m.D0
	}
	pr := txPower * m.P0Gain * m.pathGain(m.D0/d)
	if m.ShadowDB != nil {
		pr *= math.Exp(m.ShadowDB(from, to) * (math.Ln10 / 10))
	}
	return pr
}

// pathGain returns r^Exponent: by repeated multiplication and one square
// root when the exponent is a half-integer in [0, 8], by math.Pow
// otherwise.
func (m *LogDistance) pathGain(r float64) float64 {
	k := 2 * m.Exponent
	if k < 0 || k > 16 || k != math.Trunc(k) {
		return math.Pow(r, m.Exponent)
	}
	g := 1.0
	for i := 0; i < int(k)/2; i++ {
		g *= r
	}
	if int(k)%2 == 1 {
		g *= math.Sqrt(r)
	}
	return g
}

// HashShadow returns a deterministic per-link shadowing function for
// LogDistance: each ordered link (from, to) gets a fixed offset drawn from
// an approximately normal distribution with the given standard deviation
// in dB. Links are independent and asymmetric — the oddly shaped,
// non-convex coverage areas the paper insists real deployments have.
func HashShadow(seed int64, sigmaDB float64) func(from, to int) float64 {
	return func(from, to int) float64 {
		h := uint64(seed)
		h = h*0x9E3779B97F4A7C15 + uint64(uint32(from))
		h = h*0x9E3779B97F4A7C15 + uint64(uint32(to))
		h ^= h >> 29
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 32
		// Sum of four uniforms approximates a normal (Irwin-Hall).
		sum := 0.0
		for i := 0; i < 4; i++ {
			h ^= h >> 33
			h *= 0xFF51AFD7ED558CCD
			sum += float64(h%1_000_000) / 1_000_000
		}
		// Irwin-Hall(4): mean 2, variance 1/3. Normalize to N(0,1).
		z := (sum - 2) / math.Sqrt(1.0/3.0)
		return z * sigmaDB
	}
}

// MaxRange returns an upper bound on the largest distance at which model m
// still delivers at least floor watts when transmitting at txPower watts.
// It exploits the Propagation contract (received power is monotonically
// non-increasing in distance) with a doubling search plus bisection, so it
// works for any model without an analytic inverse. The sparse Medium uses
// it to size its spatial index: pairs beyond MaxRange of the pair floor
// cannot matter to any threshold decision and are answered analytically
// instead of being materialized.
//
// A non-positive floor (or a range beyond 10^12 m) returns +Inf — every
// pair is in range; a non-positive txPower returns 0.
func MaxRange(m Propagation, txPower, floor float64) float64 {
	if txPower <= 0 {
		return 0
	}
	if floor <= 0 {
		return math.Inf(1)
	}
	if m.ReceivedPower(txPower, 1e-3) < floor {
		return 0
	}
	hi := 1.0
	for m.ReceivedPower(txPower, hi) >= floor {
		hi *= 2
		if hi > 1e12 {
			return math.Inf(1)
		}
	}
	lo := 0.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if m.ReceivedPower(txPower, mid) >= floor {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// TxPowerForRange returns the transmit power needed under model m for the
// received power at distance r to equal the reception threshold. This is
// how experiments pick sensor and head powers: the paper states each node
// "can communicate with other nodes as far as [its range] away" at its
// maximum power.
func TxPowerForRange(m Propagation, r, rxThreshold float64) float64 {
	unit := m.ReceivedPower(1, r)
	if unit <= 0 {
		panic("radio: model yields non-positive power at range")
	}
	return rxThreshold / unit
}

package radio

import "math"

// Link-quality-based packet loss. The paper treats loss abstractly ("if a
// packet is lost, the cluster head will poll the sensor again"); this file
// provides a physically grounded loss model as an alternative to uniform
// loss: links with little SNR margin above the reception threshold lose
// packets more often, reproducing the grey-zone links of real deployments
// (the paper's reference [1], Aguayo et al.).

// LinkQuality summarizes one directed link's margin over the reception
// threshold.
type LinkQuality struct {
	// MarginDB is the received power's margin over the reception
	// threshold in dB; negative means the link cannot be decoded even on
	// a quiet channel.
	MarginDB float64
	// LossProb is the per-packet loss probability implied by the margin.
	LossProb float64
}

// Quality returns the quality of the directed link tx -> rx on a quiet
// channel.
func (m *Medium) Quality(tx, rx int) LinkQuality {
	pr := m.ReceivedPower(tx, rx)
	if pr <= 0 {
		return LinkQuality{MarginDB: math.Inf(-1), LossProb: 1}
	}
	margin := 10 * math.Log10(pr/DefaultRxThreshold)
	return LinkQuality{MarginDB: margin, LossProb: LossFromMargin(margin)}
}

// MarginForLoss inverts LossFromMargin: the SNR margin in dB at which the
// loss probability equals p. It panics outside (0, 1).
func MarginForLoss(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("radio: MarginForLoss requires p in (0,1)")
	}
	return 1.5 + 0.8*math.Log((1-p)/p)
}

// LossFromMargin maps an SNR margin in dB to a packet loss probability
// with a smooth grey zone: lossless above ~6 dB of margin, hopeless below
// the threshold, and a steep logistic transition between.
func LossFromMargin(marginDB float64) float64 {
	if math.IsInf(marginDB, -1) {
		return 1
	}
	// Logistic centered at 1.5 dB with a 0.8 dB scale: ~1% loss at 5 dB,
	// ~50% at 1.5 dB, ~98% at -1.5 dB.
	p := 1 / (1 + math.Exp((marginDB-1.5)/0.8))
	switch {
	case p < 1e-4:
		return 0
	case p > 1-1e-4:
		return 1
	default:
		return p
	}
}

// Package pcf models the single-hop polling baseline the paper contrasts
// with its multi-hop scheme: "the difference of our algorithm from other
// polling protocols, such as 802.11 PCF and Bluetooth, is that the latter
// are for single hop networks while the former is for multi-hop networks."
//
// A PCF-style point coordinator polls stations one at a time, and every
// station must reach the coordinator directly. In a two-layered cluster
// that means either (a) only first-level sensors participate — partial
// coverage — or (b) every sensor boosts its transmit power until it
// reaches the head — full coverage at a per-packet energy cost that grows
// with the fourth power of distance under two-ray propagation. Multi-hop
// polling covers everyone at base power; quantifying the boost PCF would
// need is the point of this package.
package pcf

import (
	"fmt"
	"math"

	"repro/internal/radio"
	"repro/internal/topo"
)

// Result is the single-hop polling analysis of one cluster.
type Result struct {
	// Sensors and Covered count the cluster and the sensors whose base
	// transmit power reaches the head directly.
	Sensors, Covered int
	// Coverage is Covered/Sensors.
	Coverage float64
	// MaxBoost and MeanBoost are the transmit-power multipliers the
	// uncovered sensors would need to reach the head directly (1 for
	// sensors already covered). MaxBoost sizes the radio PCF demands.
	MaxBoost, MeanBoost float64
	// SlotsPerCycle is the polls needed per cycle at one packet per
	// sensor: PCF serializes everything through the coordinator, so it
	// equals the number of participating sensors.
	SlotsPerCycle int
}

// Analyze computes single-hop polling coverage and the power boosts full
// coverage would require. Sensors already out of the head's broadcast
// range can never participate (the coordinator's poll cannot reach them)
// and are reported as uncoverable via an error only when the head itself
// cannot reach them.
func Analyze(c *topo.Cluster) (*Result, error) {
	n := c.Sensors()
	res := &Result{Sensors: n, MaxBoost: 1}
	if n == 0 {
		res.Coverage = 1
		return res, nil
	}
	// Coverage and boosts use the same reliability bar as the cluster's
	// connectivity graph: a PCF station must reach the coordinator
	// *reliably*, not merely at the decode threshold.
	need := radio.DefaultRxThreshold
	if c.Cfg.MaxLinkLoss > 0 && c.Cfg.MaxLinkLoss < 1 {
		need *= math.Pow(10, radio.MarginForLoss(c.Cfg.MaxLinkLoss)/10)
	}
	sumBoost := 0.0
	for v := 1; v <= n; v++ {
		if !c.Med.InRange(topo.Head, v) {
			return nil, fmt.Errorf("pcf: the head cannot even reach sensor %d; no polling protocol applies", v)
		}
		pr := c.Med.ReceivedPower(v, topo.Head)
		if pr <= 0 {
			return nil, fmt.Errorf("pcf: sensor %d has no transmit power", v)
		}
		boost := need / pr
		if boost <= 1 {
			res.Covered++
			boost = 1
		}
		sumBoost += boost
		if boost > res.MaxBoost {
			res.MaxBoost = boost
		}
	}
	res.Coverage = float64(res.Covered) / float64(n)
	res.MeanBoost = sumBoost / float64(n)
	res.SlotsPerCycle = n
	return res, nil
}

// EnergyRatio compares per-packet transmit energy: PCF at boosted power
// (boost x base, one hop) against multi-hop polling (meanHops hops at base
// power). Values above 1 mean PCF pays more.
func EnergyRatio(boost, meanHops float64) float64 {
	if meanHops <= 0 {
		return boost
	}
	return boost / meanHops
}

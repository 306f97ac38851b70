// Package energy models sensor power consumption and battery lifetime.
//
// The paper's motivation rests on the measured power ratios of typical
// sensor radios (its reference [9], Raghunathan et al.): idle listening,
// receiving and sending cost nearly the same, while sleeping is orders of
// magnitude cheaper — so a MAC that lets sensors sleep instead of idling
// dominates the energy budget. The default model below uses the widely
// quoted idle : rx : tx = 1 : 1.05 : 1.4 ratios with near-zero sleep power.
package energy

import (
	"fmt"
	"time"
)

// State is a radio power state.
type State int

// Radio power states in increasing typical power draw.
const (
	Sleep State = iota
	Idle
	Rx
	Tx
	numStates
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Sleep:
		return "sleep"
	case Idle:
		return "idle"
	case Rx:
		return "rx"
	case Tx:
		return "tx"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Model gives the power draw in watts for each radio state.
type Model struct {
	Power [numStates]float64
}

// DefaultModel returns the paper-motivated power model: 45 mW idle,
// 47.25 mW receive, 63 mW transmit (idle:rx:tx = 1:1.05:1.4) and 90 uW
// sleep.
func DefaultModel() Model {
	return Model{Power: [numStates]float64{
		Sleep: 90e-6,
		Idle:  45e-3,
		Rx:    47.25e-3,
		Tx:    63e-3,
	}}
}

// IsZero reports whether the model is the zero value (every state draws
// nothing). Configuration structs use it to fall back to a default model:
// a radio that is free in every state models nothing.
func (m Model) IsZero() bool {
	return m == Model{}
}

// PowerOf returns the draw of state s in watts.
func (m Model) PowerOf(s State) float64 {
	if s < 0 || s >= numStates {
		panic(fmt.Sprintf("energy: invalid state %d", s))
	}
	return m.Power[s]
}

// Energy returns the energy in joules consumed by spending d in state s.
func (m Model) Energy(s State, d time.Duration) float64 {
	if d < 0 {
		panic("energy: negative duration")
	}
	return m.PowerOf(s) * d.Seconds()
}

// Battery tracks the remaining charge of one sensor. The zero value is a
// depleted battery; use NewBattery.
type Battery struct {
	model    Model
	capacity float64 // joules
	used     float64
}

// NewBattery returns a battery holding capacityJoules under model m.
func NewBattery(m Model, capacityJoules float64) *Battery {
	if capacityJoules < 0 {
		panic("energy: negative capacity")
	}
	return &Battery{model: m, capacity: capacityJoules}
}

// Draw consumes the energy of spending d in state s. Draw never takes the
// battery below zero; the overage is discarded once the battery is dead.
func (b *Battery) Draw(s State, d time.Duration) {
	b.used += b.model.Energy(s, d)
	if b.used > b.capacity {
		b.used = b.capacity
	}
}

// Remaining returns the remaining charge in joules.
func (b *Battery) Remaining() float64 { return b.capacity - b.used }

// Depleted reports whether the battery is empty.
func (b *Battery) Depleted() bool { return b.Remaining() <= 0 }

// CycleProfile is the per-cycle radio time budget of one sensor, from
// which steady-state power and lifetime follow. All durations are within
// one cycle of length Cycle.
type CycleProfile struct {
	Cycle  time.Duration
	InTx   time.Duration
	InRx   time.Duration
	InIdle time.Duration
	// Sleep is implicit: Cycle - InTx - InRx - InIdle.
}

// SleepTime returns the implicit sleeping time of the profile.
func (p CycleProfile) SleepTime() time.Duration {
	active := p.InTx + p.InRx + p.InIdle
	if active > p.Cycle {
		return 0
	}
	return p.Cycle - active
}

// ActiveFraction returns the fraction of the cycle spent out of sleep —
// the y-axis of the paper's Fig. 7(a).
func (p CycleProfile) ActiveFraction() float64 {
	if p.Cycle <= 0 {
		return 0
	}
	f := float64(p.InTx+p.InRx+p.InIdle) / float64(p.Cycle)
	if f > 1 {
		return 1
	}
	return f
}

// AveragePower returns the steady-state power draw in watts of a sensor
// running profile p under model m.
func AveragePower(m Model, p CycleProfile) float64 {
	if p.Cycle <= 0 {
		panic("energy: non-positive cycle")
	}
	e := m.Energy(Tx, p.InTx) + m.Energy(Rx, p.InRx) +
		m.Energy(Idle, p.InIdle) + m.Energy(Sleep, p.SleepTime())
	return e / p.Cycle.Seconds()
}

// Lifetime returns how long a battery of capacityJoules lasts at the
// steady-state power of profile p — the sensor-life metric behind the
// paper's Fig. 7(c). It panics if the profile draws no power.
func Lifetime(m Model, p CycleProfile, capacityJoules float64) time.Duration {
	pw := AveragePower(m, p)
	if pw <= 0 {
		panic("energy: profile draws no power")
	}
	seconds := capacityJoules / pw
	return time.Duration(seconds * float64(time.Second))
}

package energy

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestStateString(t *testing.T) {
	want := map[State]string{Sleep: "sleep", Idle: "idle", Rx: "rx", Tx: "tx"}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q want %q", int(s), s.String(), w)
		}
	}
	if State(99).String() != "state(99)" {
		t.Errorf("unknown state string = %q", State(99).String())
	}
}

func TestDefaultModelRatios(t *testing.T) {
	m := DefaultModel()
	idle := m.PowerOf(Idle)
	if r := m.PowerOf(Rx) / idle; math.Abs(r-1.05) > 1e-9 {
		t.Errorf("rx/idle = %v want 1.05", r)
	}
	if r := m.PowerOf(Tx) / idle; math.Abs(r-1.4) > 1e-9 {
		t.Errorf("tx/idle = %v want 1.4", r)
	}
	// The paper's point: idle listening costs more than half of any
	// active operation, while sleep is negligible.
	if idle < 0.5*m.PowerOf(Tx) {
		t.Error("idle should cost more than half of tx")
	}
	if m.PowerOf(Sleep) > idle/100 {
		t.Error("sleep should be orders of magnitude below idle")
	}
}

func TestEnergyLinear(t *testing.T) {
	m := DefaultModel()
	e1 := m.Energy(Tx, time.Second)
	e2 := m.Energy(Tx, 2*time.Second)
	if math.Abs(e2-2*e1) > 1e-12 {
		t.Errorf("energy not linear: %v vs %v", e1, e2)
	}
	if e1 != m.PowerOf(Tx) {
		t.Errorf("1s of tx should equal tx power: %v", e1)
	}
}

func TestEnergyPanics(t *testing.T) {
	m := DefaultModel()
	mustPanic(t, func() { m.Energy(Tx, -time.Second) })
	mustPanic(t, func() { m.PowerOf(State(12)) })
	mustPanic(t, func() { NewBattery(m, -1) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestBatteryAccounting(t *testing.T) {
	m := DefaultModel()
	b := NewBattery(m, 1.0) // 1 J
	b.Draw(Tx, time.Second)
	b.Draw(Idle, 2*time.Second)
	want := 1.0 - m.PowerOf(Tx) - 2*m.PowerOf(Idle)
	if math.Abs(b.Remaining()-want) > 1e-12 {
		t.Errorf("Remaining = %v want %v", b.Remaining(), want)
	}
	if b.Depleted() {
		t.Error("should not be depleted yet")
	}
}

func TestBatteryDepletionClamps(t *testing.T) {
	b := NewBattery(DefaultModel(), 0.01)
	b.Draw(Tx, time.Hour)
	if !b.Depleted() {
		t.Fatal("battery should be depleted")
	}
	if b.Remaining() != 0 {
		t.Fatalf("Remaining = %v want 0", b.Remaining())
	}
}

func TestCycleProfile(t *testing.T) {
	p := CycleProfile{
		Cycle:  10 * time.Second,
		InTx:   time.Second,
		InRx:   2 * time.Second,
		InIdle: 3 * time.Second,
	}
	if got := p.SleepTime(); got != 4*time.Second {
		t.Errorf("SleepTime = %v", got)
	}
	if got := p.ActiveFraction(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("ActiveFraction = %v", got)
	}
	// Overfull profile clamps.
	p.InIdle = 20 * time.Second
	if p.SleepTime() != 0 {
		t.Error("overfull profile should sleep 0")
	}
	if p.ActiveFraction() != 1 {
		t.Error("overfull profile should clamp active fraction to 1")
	}
	if (CycleProfile{}).ActiveFraction() != 0 {
		t.Error("zero cycle should yield 0 fraction")
	}
}

func TestAveragePowerAndLifetime(t *testing.T) {
	m := DefaultModel()
	allSleep := CycleProfile{Cycle: 10 * time.Second}
	allIdle := CycleProfile{Cycle: 10 * time.Second, InIdle: 10 * time.Second}
	ps, pi := AveragePower(m, allSleep), AveragePower(m, allIdle)
	if math.Abs(ps-m.PowerOf(Sleep)) > 1e-12 {
		t.Errorf("all-sleep power = %v", ps)
	}
	if math.Abs(pi-m.PowerOf(Idle)) > 1e-12 {
		t.Errorf("all-idle power = %v", pi)
	}
	// Sleeping 90% of the time should extend lifetime ~10x vs idling
	// (modulo the tiny sleep draw).
	tenPct := CycleProfile{Cycle: 10 * time.Second, InIdle: time.Second}
	lIdle := Lifetime(m, allIdle, 100)
	lTen := Lifetime(m, tenPct, 100)
	ratio := float64(lTen) / float64(lIdle)
	if ratio < 9 || ratio > 10.2 {
		t.Errorf("10%% duty lifetime ratio = %v, want ~10", ratio)
	}
	mustPanic(t, func() { AveragePower(m, CycleProfile{}) })
}

func TestAveragePowerMonotoneInActivity(t *testing.T) {
	m := DefaultModel()
	f := func(txMs, rxMs, idleMs uint16) bool {
		cycle := 60 * time.Second
		p := CycleProfile{
			Cycle:  cycle,
			InTx:   time.Duration(txMs%10000) * time.Millisecond,
			InRx:   time.Duration(rxMs%10000) * time.Millisecond,
			InIdle: time.Duration(idleMs%10000) * time.Millisecond,
		}
		base := AveragePower(m, p)
		more := p
		more.InTx += time.Second
		return AveragePower(m, more) > base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package cluster

import (
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/topo"
)

func buildRunner(t *testing.T, n int, p Params, seed int64) *Runner {
	t.Helper()
	c, err := topo.Build(topo.DefaultConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(c, p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestParamsValidation(t *testing.T) {
	c, err := topo.Build(topo.DefaultConfig(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	bad := []func(*Params){
		func(p *Params) { p.M = 0 },
		func(p *Params) { p.BandwidthBps = 0 },
		func(p *Params) { p.Cycle = 0 },
		func(p *Params) { p.LossProb = 1 },
		func(p *Params) { p.RateBps = -1 },
		func(p *Params) { p.DataBytes = 0 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if _, err := NewRunner(c, p); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// dataSlot is the full length of one polling slot: the head's polling
// broadcast followed by one data packet transmission.
func (p Params) dataSlot() time.Duration { return p.txTime(p.PollBytes) + p.txTime(p.DataBytes) }

func TestSlotTimes(t *testing.T) {
	p := DefaultParams()
	// 80-byte data at 200 kbps = 3.2 ms; poll adds another 3.2 ms.
	if got := p.txTime(80); got != 3200*time.Microsecond {
		t.Fatalf("txTime(80) = %v", got)
	}
	if got := p.dataSlot(); got != 6400*time.Microsecond {
		t.Fatalf("dataSlot = %v", got)
	}
	if p.ackSlot() >= p.dataSlot() {
		t.Fatal("ack slot should be shorter than data slot")
	}
}

func TestRunCycleDeliversEverything(t *testing.T) {
	p := DefaultParams()
	p.LossProb = 0
	p.Seed = 3
	r := buildRunner(t, 20, p, 5)
	res, err := r.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fits {
		t.Fatal("light load should fit the cycle")
	}
	if res.Delivered != res.Offered {
		t.Fatalf("delivered %d of %d", res.Delivered, res.Offered)
	}
	if res.Offered == 0 {
		t.Fatal("CBR at 20 B/s over 4 s should offer packets")
	}
	if res.ActiveFraction <= 0 || res.ActiveFraction > 1 {
		t.Fatalf("active fraction %v", res.ActiveFraction)
	}
	// 100% throughput is the headline claim for polling.
	if res.Retries != 0 {
		t.Fatalf("lossless run had %d retries", res.Retries)
	}
}

func TestLossCausesRetriesButFullDelivery(t *testing.T) {
	p := DefaultParams()
	p.LossProb = 0.1
	p.Seed = 11
	r := buildRunner(t, 15, p, 7)
	s, err := r.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Retries == 0 {
		t.Fatal("10% loss should cause retries")
	}
	if s.DeliveredFraction() != 1 {
		t.Fatalf("delivered fraction %v; re-polling must recover all packets", s.DeliveredFraction())
	}
}

func TestActiveFractionGrowsWithRateAndSize(t *testing.T) {
	active := func(n int, rate float64) float64 {
		p := DefaultParams()
		p.RateBps = rate
		p.LossProb = 0
		r := buildRunner(t, n, p, 13)
		s, err := r.Run(3)
		if err != nil {
			t.Fatal(err)
		}
		return s.MeanActive
	}
	low := active(15, 20)
	highRate := active(15, 80)
	bigger := active(45, 20)
	if highRate <= low {
		t.Fatalf("active fraction should grow with rate: %v vs %v", highRate, low)
	}
	if bigger <= low {
		t.Fatalf("active fraction should grow with cluster size: %v vs %v", bigger, low)
	}
}

func TestSectorsReduceActiveTime(t *testing.T) {
	base := DefaultParams()
	base.LossProb = 0
	base.RateBps = 40
	withSec := base
	withSec.UseSectors = true

	c, err := topo.Build(topo.DefaultConfig(30, 17))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewRunner(c, base)
	if err != nil {
		t.Fatal(err)
	}
	sectored, err := NewRunner(c, withSec)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := plain.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := sectored.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if sectored.Part == nil || sectored.Part.NSectors() < 2 {
		t.Skip("deployment produced a single sector; no comparison possible")
	}
	if ss.MeanActive >= sp.MeanActive {
		t.Fatalf("sectors should cut mean active time: %v vs %v", ss.MeanActive, sp.MeanActive)
	}
	// Fig. 7(c): lifetime with sectors exceeds lifetime without.
	m := energy.DefaultModel()
	lp := sp.Lifetime(m, 100)
	ls := ss.Lifetime(m, 100)
	if ls <= lp {
		t.Fatalf("sector lifetime %v should exceed plain %v", ls, lp)
	}
}

func TestOverloadDoesNotFit(t *testing.T) {
	p := DefaultParams()
	p.RateBps = 400 // absurd per-sensor load
	p.LossProb = 0
	r := buildRunner(t, 60, p, 19)
	res, err := r.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if res.Fits {
		t.Fatal("overload should not fit the cycle")
	}
	if res.Delivered >= res.Offered {
		t.Fatal("overload must shed packets")
	}
	if res.ActiveFraction != 1 {
		t.Fatalf("overloaded sensors should be fully active, got %v", res.ActiveFraction)
	}
}

func TestProfilesAccountFullWindow(t *testing.T) {
	p := DefaultParams()
	p.LossProb = 0
	r := buildRunner(t, 12, p, 23)
	res, err := r.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 12; v++ {
		prof := res.Profiles[v]
		total := prof.InTx + prof.InRx + prof.InIdle
		// Without sectors every sensor is awake for the whole duty.
		if total != res.Duty {
			t.Fatalf("sensor %d accounts %v of %v duty", v, total, res.Duty)
		}
		if prof.InTx == 0 {
			t.Fatalf("sensor %d never transmitted (it must at least ack/send)", v)
		}
	}
	// The head's profile is untouched.
	if res.Profiles[0].InTx != 0 {
		t.Fatal("head profile should remain zero")
	}
}

func TestRunAggregation(t *testing.T) {
	p := DefaultParams()
	p.LossProb = 0
	r := buildRunner(t, 10, p, 29)
	s, err := r.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cycles != 4 {
		t.Fatalf("cycles = %d", s.Cycles)
	}
	if !s.AllFit {
		t.Fatal("light load should always fit")
	}
	if s.MeanActive <= 0 {
		t.Fatal("mean active fraction should be positive")
	}
	if s.MeanDuty <= 0 || s.MeanDataSlots <= 0 {
		t.Fatalf("means: duty %v data %v", s.MeanDuty, s.MeanDataSlots)
	}
	if _, err := r.Run(0); err == nil {
		t.Fatal("zero cycles should error")
	}
}

func TestDelayVariantRuns(t *testing.T) {
	p := DefaultParams()
	p.AllowDelay = true
	p.LossProb = 0
	r := buildRunner(t, 10, p, 31)
	s, err := r.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if s.DeliveredFraction() != 1 {
		t.Fatalf("delay variant delivered %v", s.DeliveredFraction())
	}
}

func TestOracleTestsBoundedBySectors(t *testing.T) {
	// Section IV: managing sensors by sectors shrinks the number of
	// interference groups the head must test.
	c, err := topo.Build(topo.DefaultConfig(40, 37))
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultParams()
	base.LossProb = 0
	withSec := base
	withSec.UseSectors = true
	plain, err := NewRunner(c, base)
	if err != nil {
		t.Fatal(err)
	}
	sectored, err := NewRunner(c, withSec)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := plain.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := sectored.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if sectored.Part.NSectors() >= 2 && ss.OracleTests >= sp.OracleTests {
		t.Fatalf("sector mode tested %d groups, plain %d; sectors should test fewer",
			ss.OracleTests, sp.OracleTests)
	}
}

func TestTokenAndColoredCycles(t *testing.T) {
	duties := []time.Duration{time.Second, 2 * time.Second, time.Second}
	if got := TokenRotationCycle(duties); got != 4*time.Second {
		t.Fatalf("token cycle = %v", got)
	}
	// Clusters 0 and 2 share channel 0; cluster 1 is alone on channel 1.
	got, err := ColoredCycle(duties, []int{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2*time.Second {
		t.Fatalf("colored cycle = %v", got)
	}
	if _, err := ColoredCycle(duties, []int{0}); err == nil {
		t.Fatal("mismatched lengths should error")
	}
	// Coloring can never be worse than the token.
	if got > TokenRotationCycle(duties) {
		t.Fatal("colored cycle exceeded token rotation")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	p := DefaultParams()
	p.Seed = 41
	a := buildRunner(t, 12, p, 43)
	b := buildRunner(t, 12, p, 43)
	ra, err := a.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if ra.Offered != rb.Offered || ra.DataSlots != rb.DataSlots || ra.Retries != rb.Retries {
		t.Fatalf("identical runs diverged: %+v vs %+v", ra, rb)
	}
}

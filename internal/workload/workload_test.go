package workload

import (
	"math"
	"testing"
	"time"
)

func TestNextCycleExactRates(t *testing.T) {
	// 80 B/s, 80-byte packets, 1 s cycle: exactly one packet per cycle.
	c := NewCBR(3, 80, 80)
	for i := 0; i < 10; i++ {
		pk := c.NextCycle(time.Second)
		for s, p := range pk {
			if p != 1 {
				t.Fatalf("cycle %d sensor %d: %d packets", i, s, p)
			}
		}
	}
}

func TestNextCycleCreditCarryover(t *testing.T) {
	// 20 B/s, 80-byte packets, 1 s cycle: a packet every 4 cycles.
	c := NewCBR(1, 20, 80)
	total := 0
	for i := 0; i < 40; i++ {
		total += c.NextCycle(time.Second)[0]
	}
	if total != 10 {
		t.Fatalf("40 cycles at 0.25 pkt/cycle produced %d packets, want 10", total)
	}
}

func TestLongRunAverageMatchesRate(t *testing.T) {
	c := NewCBR(1, 37, 80) // awkward rate
	cycle := 3 * time.Second
	total := 0
	const cycles = 1000
	for i := 0; i < cycles; i++ {
		total += c.NextCycle(cycle)[0]
	}
	want := 37.0 * cycle.Seconds() * cycles / 80
	if math.Abs(float64(total)-want) > 1 {
		t.Fatalf("total %d, want ~%.1f", total, want)
	}
}

func TestMeanAndPlanningDemand(t *testing.T) {
	c := NewCBR(2, 60, 80)
	if got := c.MeanPacketsPerCycle(4 * time.Second); math.Abs(got-3) > 1e-12 {
		t.Fatalf("mean = %v want 3", got)
	}
	if got := c.PlanningDemand(4 * time.Second); got != 3 {
		t.Fatalf("demand = %d want 3", got)
	}
	// Fractional mean rounds up.
	if got := c.PlanningDemand(3 * time.Second); got != 3 {
		t.Fatalf("demand = %d want ceil(2.25)=3", got)
	}
	// Tiny rates still get demand 1.
	slow := NewCBR(1, 1, 80)
	if got := slow.PlanningDemand(time.Second); got != 1 {
		t.Fatalf("slow demand = %d want 1", got)
	}
}

func TestZeroRate(t *testing.T) {
	c := NewCBR(2, 0, 80)
	pk := c.NextCycle(time.Second)
	if pk[0] != 0 || pk[1] != 0 {
		t.Fatalf("zero rate produced packets: %v", pk)
	}
}

func TestPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewCBR(-1, 1, 80) },
		func() { NewCBR(1, -1, 80) },
		func() { NewCBR(1, 1, 0) },
		func() { NewCBR(1, 1, 80).NextCycle(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

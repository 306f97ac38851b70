package cluster

import (
	"strings"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/topo"
	"repro/internal/trace"
)

func TestEarlySleepReducesActiveTime(t *testing.T) {
	c, err := topo.Build(topo.DefaultConfig(25, 47))
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultParams()
	base.LossProb = 0
	base.RateBps = 40
	early := base
	early.EarlySleep = true

	plain, err := NewRunner(c, base)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewRunner(c, early)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := plain.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	se, err := fast.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if se.MeanActive >= sp.MeanActive {
		t.Fatalf("early sleep active %v should be below plain %v", se.MeanActive, sp.MeanActive)
	}
	// The schedule itself is unchanged: same slots, same delivery.
	if se.MeanDataSlots != sp.MeanDataSlots {
		t.Fatalf("early sleep changed the schedule: %v vs %v slots",
			se.MeanDataSlots, sp.MeanDataSlots)
	}
	if se.DeliveredFraction() != 1 {
		t.Fatalf("early sleep lost packets: %v", se.DeliveredFraction())
	}
	// And it extends lifetime.
	m := energy.DefaultModel()
	if se.Lifetime(m, 100) <= sp.Lifetime(m, 100) {
		t.Fatal("early sleep should extend lifetime")
	}
}

func TestEarlySleepComposesWithSectors(t *testing.T) {
	c, err := topo.Build(topo.DefaultConfig(30, 53))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.LossProb = 0
	p.RateBps = 40
	p.UseSectors = true
	p.EarlySleep = true
	r, err := NewRunner(c, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if s.DeliveredFraction() != 1 {
		t.Fatalf("delivered %v", s.DeliveredFraction())
	}
	if s.MeanActive <= 0 {
		t.Fatal("active fraction must remain positive")
	}
}

func TestEarlySleepProfileNeverExceedsWindow(t *testing.T) {
	c, err := topo.Build(topo.DefaultConfig(20, 59))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.EarlySleep = true
	p.LossProb = 0.05
	r, err := NewRunner(c, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 20; v++ {
		prof := res.Profiles[v]
		total := prof.InTx + prof.InRx + prof.InIdle
		if total > res.Duty {
			t.Fatalf("sensor %d awake %v > duty %v", v, total, res.Duty)
		}
		if total <= 0 {
			t.Fatalf("sensor %d has an empty profile", v)
		}
	}
}

func TestLinkLossProducesRetries(t *testing.T) {
	// With 30 m range links near the edge are grey (radio.Quality), so
	// link-quality loss must produce retries even with a zero uniform
	// floor, and still deliver everything.
	c, err := topo.Build(topo.DefaultConfig(30, 61))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.LossProb = 0
	p.LinkLoss = true
	p.RateBps = 40
	r, err := NewRunner(c, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Retries == 0 {
		t.Fatal("link-quality loss should cause retries on grey links")
	}
	if s.DeliveredFraction() != 1 {
		t.Fatalf("delivered %v", s.DeliveredFraction())
	}
}

func TestLinkLossRespectsFloor(t *testing.T) {
	// The uniform LossProb acts as a floor under LinkLoss: with a very
	// high floor, even solid links lose packets.
	c, err := topo.Build(topo.DefaultConfig(10, 67))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.LinkLoss = true
	p.LossProb = 0.5
	r, err := NewRunner(c, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries == 0 {
		t.Fatal("50% floor should force retries")
	}
}

func TestSectorWindowsSumToDuty(t *testing.T) {
	c, err := topo.Build(topo.DefaultConfig(30, 71))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.UseSectors = true
	p.LossProb = 0
	r, err := NewRunner(c, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	// Each sensor is awake only for its own sector's window; the sum of
	// distinct window lengths (weighted by one sensor each) must not
	// exceed the total duty.
	for v := 1; v <= 30; v++ {
		prof := res.Profiles[v]
		if total := prof.InTx + prof.InRx + prof.InIdle; total > res.Duty {
			t.Fatalf("sensor %d awake longer than the whole duty", v)
		}
	}
	if res.Duty > time.Duration(float64(p.Cycle)*1.5) && res.Fits {
		t.Fatal("inconsistent fit flag")
	}
}

// TestLatencyMetrics checks the packet latency a traced run reports, the
// source of the trace_latency_slots histogram: every packet arrives at
// the head within its group's data phase.
func TestLatencyMetrics(t *testing.T) {
	c, err := topo.Build(topo.DefaultConfig(20, 131))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.LossProb = 0
	p.RateBps = 40
	r, err := NewRunner(c, p)
	if err != nil {
		t.Fatal(err)
	}
	r.Trace = &trace.Log{}
	res, err := r.RunCycle()
	if err != nil {
		t.Fatal(err)
	}
	arrivals := 0
	for _, e := range r.Trace.Events() {
		if e.Kind != trace.KindArrival {
			continue
		}
		arrivals++
		if lat := e.Slot + 1; lat < 1 || lat > res.DataSlots {
			t.Fatalf("packet %d latency %d slots outside the %d data slots", e.Request, lat, res.DataSlots)
		}
	}
	if arrivals != res.Offered {
		t.Fatalf("%d arrivals traced, %d packets offered", arrivals, res.Offered)
	}
}

func TestSummaryString(t *testing.T) {
	c, err := topo.Build(topo.DefaultConfig(10, 199))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.LossProb = 0
	r, err := NewRunner(c, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	out := s.String()
	for _, want := range []string{"cycles 2", "delivered", "100%", "mean active"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() = %q missing %q", out, want)
		}
	}
}

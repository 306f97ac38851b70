package smac

import (
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/radio"
	"repro/internal/topo"
)

// lineMedium builds sink(0) - 1 - 2 in a line, 25 m apart, sensor range
// 30 m (multi-hop to the sink from node 2).
func lineMedium() *radio.Medium {
	pos := []geom.Point{{X: 0, Y: 0}, {X: 25, Y: 0}, {X: 50, Y: 0}}
	med := radio.NewMedium(radio.NewTwoRay(), pos)
	p := radio.TxPowerForRange(radio.NewTwoRay(), 30, radio.DefaultRxThreshold)
	for i := range pos {
		med.SetTxPower(i, p)
	}
	return med
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		func() Config { c := DefaultConfig(0.5, 1); c.Duty = 1.5; return c }(),
		func() Config { c := DefaultConfig(0.5, 1); c.Frame = 0; return c }(),
		func() Config { c := DefaultConfig(0.5, 1); c.CWSlots = 0; return c }(),
		func() Config { c := DefaultConfig(0.5, 1); c.RetryLimit = 0; return c }(),
	}
	med := lineMedium()
	for i, c := range bad {
		if _, err := NewNetwork(med, 0, c); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if _, err := NewNetwork(med, 9, DefaultConfig(0.5, 1)); err == nil {
		t.Error("bad sink should be rejected")
	}
}

func TestTxTimes(t *testing.T) {
	c := DefaultConfig(1, 1)
	// 80 bytes at 200 kbps = 3.2 ms.
	if got := c.txTime(80); got != 3200*time.Microsecond {
		t.Fatalf("data tx time = %v", got)
	}
	if got := c.listenLen(); got != c.Frame {
		t.Fatalf("duty 1.0 listen = %v", got)
	}
	c.Duty = 0.5
	if got := c.listenLen(); got != c.Frame/2 {
		t.Fatalf("duty 0.5 listen = %v", got)
	}
}

func TestSingleHopDelivery(t *testing.T) {
	med := lineMedium()
	nw, err := NewNetwork(med, 0, DefaultConfig(1, 7))
	if err != nil {
		t.Fatal(err)
	}
	// Only node 1 generates, slowly: everything should arrive.
	nw.StartCBR(8) // 8 B/s -> one 80-byte packet every 10 s per sender
	m := nw.Run(60*time.Second, 5*time.Second)
	if m.Delivered == 0 {
		t.Fatal("nothing delivered on an idle single-hop network")
	}
	// Node 2's packets need relaying via 1; both flows should arrive.
	if m.Delivered < 8 {
		t.Fatalf("delivered only %d packets", m.Delivered)
	}
	if m.Ctrl == 0 {
		t.Fatal("AODV/RTS control packets should have been sent")
	}
}

func TestMultiHopRouteDiscovery(t *testing.T) {
	med := lineMedium()
	nw, err := NewNetwork(med, 0, DefaultConfig(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	nw.StartCBR(8)
	nw.Run(30*time.Second, 0)
	// Node 2 must have found the 2-hop route via node 1.
	if nh, ok := nw.nodes[2].table.NextHop(0, nw.eng.Now()); !ok || nh != 1 {
		t.Fatalf("node 2 route: next=%d ok=%v", nh, ok)
	}
}

func TestLowDutyDeliversLess(t *testing.T) {
	// The core Fig. 7(b) effect: at a load near capacity, 30% duty
	// delivers materially less than 100% duty.
	run := func(duty float64) Metrics {
		c, err := topo.Build(topo.DefaultConfig(12, 5))
		if err != nil {
			t.Fatal(err)
		}
		nw, err := NewNetwork(c.Med, 0, DefaultConfig(duty, 11))
		if err != nil {
			t.Fatal(err)
		}
		nw.StartCBR(40)
		return nw.Run(60*time.Second, 10*time.Second)
	}
	full := run(1.0)
	low := run(0.3)
	if full.Delivered == 0 {
		t.Fatal("full duty delivered nothing")
	}
	if low.Delivered >= full.Delivered {
		t.Fatalf("duty 0.3 delivered %d >= duty 1.0 delivered %d",
			low.Delivered, full.Delivered)
	}
}

func TestOverloadSheds(t *testing.T) {
	// Offered load far above the handshake capacity must produce drops
	// and throughput below offered.
	c, err := topo.Build(topo.DefaultConfig(15, 9))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNetwork(c.Med, 0, DefaultConfig(0.5, 13))
	if err != nil {
		t.Fatal(err)
	}
	nw.StartCBR(100) // 15 senders x 100 B/s = 1500 B/s offered
	m := nw.Run(60*time.Second, 10*time.Second)
	offered := float64(m.Generated*80) / 50.0
	got := m.ThroughputBps(50*time.Second, 80)
	if got >= offered {
		t.Fatalf("throughput %.0f >= offered %.0f under overload", got, offered)
	}
	if m.Drops == 0 {
		t.Fatal("expected queue/retry drops under overload")
	}
}

func TestMetricsThroughput(t *testing.T) {
	m := Metrics{Delivered: 100}
	if got := m.ThroughputBps(10*time.Second, 80); got != 800 {
		t.Fatalf("throughput = %v want 800", got)
	}
	if got := m.ThroughputBps(0, 80); got != 0 {
		t.Fatalf("zero window should be 0, got %v", got)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	run := func() Metrics {
		med := lineMedium()
		nw, err := NewNetwork(med, 0, DefaultConfig(0.7, 21))
		if err != nil {
			t.Fatal(err)
		}
		nw.StartCBR(16)
		return nw.Run(30*time.Second, 5*time.Second)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("runs with identical seeds diverge: %+v vs %+v", a, b)
	}
}

func TestStartCBRPanicsOnBadRate(t *testing.T) {
	med := lineMedium()
	nw, err := NewNetwork(med, 0, DefaultConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	nw.StartCBR(0)
}

func TestHiddenTerminalCollisions(t *testing.T) {
	// Nodes 1 and 2 both in range of the sink but not of each other:
	// simultaneous sends collide at the sink. With heavy traffic we must
	// observe collisions (RTS/RTS at least, surfacing as retries/ctrl).
	pos := []geom.Point{{X: 0, Y: 0}, {X: -25, Y: 0}, {X: 25, Y: 0}}
	med := radio.NewMedium(radio.NewTwoRay(), pos)
	p := radio.TxPowerForRange(radio.NewTwoRay(), 30, radio.DefaultRxThreshold)
	for i := range pos {
		med.SetTxPower(i, p)
	}
	if med.InRange(1, 2) {
		t.Fatal("precondition: 1 and 2 must be hidden from each other")
	}
	nw, err := NewNetwork(med, 0, DefaultConfig(1, 31))
	if err != nil {
		t.Fatal(err)
	}
	nw.StartCBR(400) // heavy: a packet every 200 ms per sender
	m := nw.Run(60*time.Second, 5*time.Second)
	if m.Delivered == 0 {
		t.Fatal("some packets should still get through")
	}
	// The channel is lossy under hidden terminals: data frames sent must
	// exceed data frames delivered (retries happened).
	if m.DataSent <= m.Delivered {
		t.Fatalf("expected retries: sent %d delivered %d", m.DataSent, m.Delivered)
	}
}

package pcf

import (
	"testing"

	"repro/internal/topo"
)

func TestAnalyzeMultiHopCluster(t *testing.T) {
	// The default cluster (100 m square, 30 m range) is multi-hop:
	// single-hop PCF covers only the first level.
	c, err := topo.Build(topo.DefaultConfig(30, 7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sensors != 30 {
		t.Fatalf("sensors = %d", res.Sensors)
	}
	if res.Coverage >= 1 {
		t.Fatal("multi-hop cluster should not be fully covered by single-hop polling")
	}
	// Covered must match the first level exactly.
	firstLevel := 0
	for v := 1; v <= c.Sensors(); v++ {
		if c.Level[v] == 1 {
			firstLevel++
		}
	}
	if res.Covered != firstLevel {
		t.Fatalf("covered %d != first level %d", res.Covered, firstLevel)
	}
	// Full coverage demands serious power boosts: under two-ray d^4
	// decay, a corner sensor at ~70 m vs. a 30 m range needs ~(70/30)^4
	// ~ 30x.
	if res.MaxBoost < 5 {
		t.Fatalf("max boost %v implausibly low", res.MaxBoost)
	}
	if res.MeanBoost <= 1 || res.MeanBoost > res.MaxBoost {
		t.Fatalf("mean boost %v out of range (max %v)", res.MeanBoost, res.MaxBoost)
	}
	if res.SlotsPerCycle != 30 {
		t.Fatalf("slots = %d", res.SlotsPerCycle)
	}
}

func TestAnalyzeSingleHopCluster(t *testing.T) {
	// A small square relative to the range: everyone reaches the head.
	cfg := topo.DefaultConfig(10, 11)
	cfg.Side = 30
	c, err := topo.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 1 {
		t.Fatalf("coverage = %v", res.Coverage)
	}
	if res.MaxBoost != 1 || res.MeanBoost != 1 {
		t.Fatalf("boosts = %v/%v, want 1", res.MaxBoost, res.MeanBoost)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	cfg := topo.DefaultConfig(0, 1)
	c, err := topo.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 1 || res.Sensors != 0 {
		t.Fatalf("empty cluster: %+v", res)
	}
}

func TestEnergyRatio(t *testing.T) {
	// A 30x boost over a 2-hop average: PCF pays 15x per packet.
	if got := EnergyRatio(30, 2); got != 15 {
		t.Fatalf("ratio = %v", got)
	}
	if got := EnergyRatio(5, 0); got != 5 {
		t.Fatalf("degenerate ratio = %v", got)
	}
}

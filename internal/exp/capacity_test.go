package exp

import (
	"strings"
	"testing"
)

func TestCapacityFrontier(t *testing.T) {
	cfg := QuickCapacity()
	cfg.Nodes = []int{10, 40}
	rows, err := Capacity(Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].MaxRateBps <= rows[1].MaxRateBps {
		t.Fatalf("per-sensor capacity should shrink with size: %v vs %v",
			rows[0].MaxRateBps, rows[1].MaxRateBps)
	}
	for _, r := range rows {
		if r.TotalBps != r.MaxRateBps*float64(r.Nodes) {
			t.Fatalf("total mismatch: %+v", r)
		}
	}
	if !strings.Contains(RenderCapacity(rows), "cluster intake") {
		t.Error("render malformed")
	}
}

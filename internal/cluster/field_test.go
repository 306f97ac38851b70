package cluster

import (
	"testing"
	"time"

	"repro/internal/topo"
)

// Field-level cycle arithmetic edge cases. The runtime that exercises
// these across live fields is internal/field; here the pure helpers are
// pinned on their boundary inputs.

func TestColoredCycleSingleChannel(t *testing.T) {
	// Every cluster on one channel: coloring buys nothing, the colored
	// cycle is the full token rotation.
	duties := []time.Duration{3 * time.Millisecond, 5 * time.Millisecond, 2 * time.Millisecond}
	colors := []int{0, 0, 0}
	got, err := ColoredCycle(duties, colors)
	if err != nil {
		t.Fatal(err)
	}
	if want := TokenRotationCycle(duties); got != want {
		t.Fatalf("single channel colored cycle %v, want token cycle %v", got, want)
	}
}

func TestColoredCycleEmptyField(t *testing.T) {
	got, err := ColoredCycle(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("empty field colored cycle %v, want 0", got)
	}
	if TokenRotationCycle(nil) != 0 {
		t.Fatal("empty field token cycle must be 0")
	}
}

func TestColoredCycleOneClusterPerChannel(t *testing.T) {
	// Fully parallel field: the busiest single cluster sets the cycle.
	duties := []time.Duration{3 * time.Millisecond, 7 * time.Millisecond, 2 * time.Millisecond}
	colors := []int{0, 1, 2}
	got, err := ColoredCycle(duties, colors)
	if err != nil {
		t.Fatal(err)
	}
	if want := 7 * time.Millisecond; got != want {
		t.Fatalf("one-cluster-per-channel colored cycle %v, want max duty %v", got, want)
	}
}

func TestColoredCycleLengthMismatch(t *testing.T) {
	if _, err := ColoredCycle([]time.Duration{time.Millisecond}, []int{0, 1}); err == nil {
		t.Fatal("mismatched duties/colors should error")
	}
}

func TestBuildClusterFromField(t *testing.T) {
	f := topo.BuildField(13, 250, 4, 60)
	cfg := topo.DefaultConfig(0, 0)
	total := 0
	for k := range f.Heads {
		c, err := f.BuildCluster(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		total += c.Sensors()
		// Sensors out of reach are allowed but must be flagged by level.
		for v := 1; v <= c.Sensors(); v++ {
			if c.Level[v] == 0 {
				t.Fatalf("cluster %d sensor %d has head level", k, v)
			}
		}
	}
	if total != 60 {
		t.Fatalf("field clusters hold %d sensors, want 60", total)
	}
	if _, err := f.BuildCluster(9, cfg); err == nil {
		t.Fatal("out-of-range cluster index should error")
	}
}

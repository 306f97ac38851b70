package cluster

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/topo"
	"repro/internal/trace"
)

// topRelays returns the k sensors that relay the most routes of the
// runner's cycle-0 rotation, busiest first (ties by id).
func topRelays(t *testing.T, r *Runner, k int) []int {
	t.Helper()
	counts := map[int]int{}
	for _, route := range r.Plan.CycleRoutes(0) {
		for _, x := range route[1 : len(route)-1] {
			counts[x]++
		}
	}
	var relays []int
	for x := range counts {
		relays = append(relays, x)
	}
	sort.Slice(relays, func(i, j int) bool {
		if counts[relays[i]] != counts[relays[j]] {
			return counts[relays[i]] > counts[relays[j]]
		}
		return relays[i] < relays[j]
	})
	if len(relays) < k {
		t.Fatalf("only %d relays, need %d", len(relays), k)
	}
	return relays[:k]
}

func buildCluster(t *testing.T, n int, seed int64) *topo.Cluster {
	t.Helper()
	c, err := topo.Build(topo.DefaultConfig(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRunnerScratchReuse reuses one RunnerScratch for runners over a
// large cluster, a smaller one, and the large one again after two relays
// fail: every reused runner must summarize exactly like a runner built
// with its own scratch on an identical cluster, so no buffer carries
// state from an earlier, differently sized run.
func TestRunnerScratchReuse(t *testing.T) {
	base, err := NewRunner(buildCluster(t, 40, 5), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	victims := topRelays(t, base, 2)
	failed := func() *topo.Cluster {
		c := buildCluster(t, 40, 5)
		c.MarkFailedBatch(victims)
		return c
	}
	if n := failed().ReachableCount(); n > 38 {
		t.Fatalf("failing relays %v left %d sensors reachable", victims, n)
	}
	steps := []struct {
		name  string
		build func() *topo.Cluster
	}{
		{"40 sensors", func() *topo.Cluster { return buildCluster(t, 40, 5) }},
		{"25 sensors", func() *topo.Cluster { return buildCluster(t, 25, 7) }},
		{"40 sensors, two relays failed", failed},
	}
	for _, sectors := range []bool{false, true} {
		p := DefaultParams()
		p.Seed = 11
		p.UseSectors = sectors
		scr := &RunnerScratch{}
		for _, s := range steps {
			reused, err := NewRunnerScratch(s.build(), p, nil, scr)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewRunner(s.build(), p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := reused.Run(3)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Run(3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("sectors=%v, %s: reused scratch summary\n%v\nfresh\n%v", sectors, s.name, got, want)
			}
		}
	}
}

// TestTracedRunnerOnScratch attaches a trace to a runner on a reused
// scratch: its cycles must equal an untraced twin's, and the events it
// recorded for cycle 0 must survive later cycles reusing the polling
// buffers, because the trace holds copies rather than aliases.
func TestTracedRunnerOnScratch(t *testing.T) {
	p := DefaultParams()
	p.Seed = 3
	scr := &RunnerScratch{}
	warm, err := NewRunnerScratch(buildCluster(t, 40, 5), p, nil, scr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Run(2); err != nil {
		t.Fatal(err)
	}
	traced, err := NewRunnerScratch(buildCluster(t, 25, 7), p, nil, scr)
	if err != nil {
		t.Fatal(err)
	}
	traced.Trace = &trace.Log{}
	twin, err := NewRunner(buildCluster(t, 25, 7), p)
	if err != nil {
		t.Fatal(err)
	}
	var cycle0 []trace.Event
	for i := 0; i < 3; i++ {
		got, err := traced.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: traced %+v, untraced %+v", i, got, want)
		}
		if i == 0 {
			cycle0 = traced.Trace.Events()
		}
	}
	if len(cycle0) == 0 {
		t.Fatal("cycle 0 recorded no events")
	}
	var after []trace.Event
	for _, e := range traced.Trace.Events() {
		if e.Cycle == 0 {
			after = append(after, e)
		}
	}
	if !reflect.DeepEqual(after, cycle0) {
		t.Errorf("cycle 0 events changed after later cycles: %d events, were %d", len(after), len(cycle0))
	}
	if traced.Trace.Len() <= len(cycle0) {
		t.Errorf("cycles 1-2 recorded nothing: %d events in all", traced.Trace.Len())
	}
}

package cluster

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/routing"
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

// TestRunnerKeepsLearnedStateWhileRadioUnchanged pins the validity rule
// of a scratch's learned state. A rebuild with nothing changed keeps the
// oracle's verdicts and shares the sector partition, and its cycles
// equal a fresh runner's with OracleTests counting only the groups the
// earlier runner had not tested. After a transmit power change, a
// shadowing refresh, a failure batch, a new demand (a new plan on the
// same medium) or a new M, the rebuilt runner equals a fresh NewRunner
// on an identical cluster, OracleTests included.
func TestRunnerKeepsLearnedStateWhileRadioUnchanged(t *testing.T) {
	build := func() *topo.Cluster {
		cfg := topo.DefaultConfig(30, 167)
		cfg.Prop = radio.NewLogDistance(3.5, 1)
		c, err := topo.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	type change struct {
		name  string
		apply func(c *topo.Cluster, p *Params)
		// radio is false for a change that leaves every verdict valid:
		// the rebuild keeps them and only re-partitions.
		radio bool
	}
	changes := []change{
		{"SetTxPower", func(c *topo.Cluster, _ *Params) { c.Med.SetTxPower(7, 1.5*c.Med.TxPower(7)) }, true},
		{"RefreshConnectivity", func(c *topo.Cluster, _ *Params) {
			c.Cfg.Prop.(*radio.LogDistance).ShadowDB = radio.HashShadow(5, 3)
			c.RefreshConnectivity()
		}, true},
		{"MarkFailedBatch", func(c *topo.Cluster, _ *Params) { c.MarkFailedBatch([]int{3, 11}) }, true},
		{"new demand", func(_ *topo.Cluster, p *Params) { p.RateBps *= 2 }, false},
		{"new M", func(_ *topo.Cluster, p *Params) { p.M = 2 }, true},
	}
	for _, sectors := range []bool{false, true} {
		p := DefaultParams()
		p.Seed = 11
		p.UseSectors = sectors
		base := p
		c := build()
		cache := &routing.PlanCache{}
		scr := &RunnerScratch{}
		// fresh runs a runner on its own scratch over a cluster that went
		// through the first n changes.
		fresh := func(n int, p Params) *Summary {
			t.Helper()
			fc := build()
			for _, ch := range changes[:n] {
				ch.apply(fc, &p)
			}
			r, err := NewRunner(fc, p)
			if err != nil {
				t.Fatal(err)
			}
			s, err := r.Run(3)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		first, err := NewRunnerScratch(c, p, cache, scr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := first.Run(2); err != nil {
			t.Fatal(err)
		}
		learned := first.Oracle.Tests

		kept, err := NewRunnerScratch(c, p, cache, scr)
		if err != nil {
			t.Fatal(err)
		}
		if kept.Oracle.Tests != learned {
			t.Fatalf("sectors=%v: unchanged rebuild has %d tested groups, want the %d learned", sectors, kept.Oracle.Tests, learned)
		}
		if kept.Part != first.Part {
			t.Fatalf("sectors=%v: unchanged rebuild did not share the partition", sectors)
		}
		got, err := kept.Run(3)
		if err != nil {
			t.Fatal(err)
		}
		want := fresh(0, base)
		if got.OracleTests != want.OracleTests-learned {
			t.Errorf("sectors=%v: kept runner tested %d groups, want %d - %d", sectors, got.OracleTests, want.OracleTests, learned)
		}
		got.OracleTests = want.OracleTests
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sectors=%v: kept runner summary\n%v\nfresh\n%v", sectors, got, want)
		}

		for i, ch := range changes {
			prev := kept.Part
			ch.apply(c, &p)
			kept, err = NewRunnerScratch(c, p, cache, scr)
			if err != nil {
				t.Fatal(err)
			}
			if sectors && kept.Part == prev {
				t.Errorf("sectors=%v, %s: rebuild kept the stale partition", sectors, ch.name)
			}
			if known := kept.testsBase; ch.radio != (known == 0) {
				t.Errorf("sectors=%v, %s: rebuild starts from %d known groups", sectors, ch.name, known)
			}
			got, err := kept.Run(3)
			if err != nil {
				t.Fatal(err)
			}
			want := fresh(i+1, base)
			if !ch.radio {
				got.OracleTests = want.OracleTests
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("sectors=%v, %s: rebuilt runner summary\n%v\nfresh\n%v", sectors, ch.name, got, want)
			}
		}
	}
}

// TestAckRequestsForgetPreviousGroup covers one group after another on
// one scratch: the second cover must equal a fresh scratch's, even
// though its route passes relays that were members of the first group
// and are not of the second.
func TestAckRequestsForgetPreviousGroup(t *testing.T) {
	routes := map[int][]int{1: {1, 0}, 2: {2, 1, 0}, 3: {3, 2, 1, 0}, 4: {4, 3, 2, 1, 0}}
	kept := &Runner{scr: &RunnerScratch{}}
	if _, err := kept.ackRequests([]int{1, 2, 3}, routes); err != nil {
		t.Fatal(err)
	}
	for _, group := range [][]int{{4}, {4, 3}, {2}} {
		got, err := kept.ackRequests(group, routes)
		if err != nil {
			t.Fatalf("group %v after another: %v", group, err)
		}
		got = append([]core.Request(nil), got...)
		want, err := (&Runner{scr: &RunnerScratch{}}).ackRequests(group, routes)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("group %v: kept scratch covers with %v, fresh with %v", group, got, want)
		}
	}
}

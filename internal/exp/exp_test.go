package exp

import (
	"strings"
	"testing"
	"time"
)

func TestFig7aQuickShape(t *testing.T) {
	points, err := Fig7a(Options{}, QuickFig7a())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 { // 3 sizes x 2 rates
		t.Fatalf("points = %d", len(points))
	}
	get := func(n int, rate float64) Fig7aPoint {
		for _, p := range points {
			if p.Nodes == n && p.RateBps == rate {
				return p
			}
		}
		t.Fatalf("missing point %d/%g", n, rate)
		return Fig7aPoint{}
	}
	// The figure's shape: active time grows with rate and with size.
	if !(get(10, 60).ActivePct > get(10, 20).ActivePct) {
		t.Error("active time should grow with rate")
	}
	if !(get(50, 20).ActivePct > get(10, 20).ActivePct) {
		t.Error("active time should grow with cluster size")
	}
	for _, p := range points {
		if p.ActivePct <= 0 || p.ActivePct > 100 {
			t.Errorf("active %% out of range: %+v", p)
		}
	}
	table := RenderFig7a(points)
	if !strings.Contains(table, "nodes") || !strings.Contains(table, "60 Bps") {
		t.Errorf("table missing headers:\n%s", table)
	}
}

func TestFig7bQuickShape(t *testing.T) {
	points, err := Fig7b(Options{}, QuickFig7b())
	if err != nil {
		t.Fatal(err)
	}
	get := func(series string, load float64) float64 {
		for _, p := range points {
			if p.Series == series && p.OfferedBps == load {
				return p.ThroughputBps
			}
		}
		t.Fatalf("missing %s@%g", series, load)
		return 0
	}
	// Polling sustains ~100% throughput at every load.
	for _, load := range []float64{210, 750} {
		if got := get("polling", load); got < 0.99*load {
			t.Errorf("polling throughput %g at offered %g", got, load)
		}
	}
	// S-MAC at a lower duty does worse than no-sleep at the high load,
	// and both fall below polling.
	high := 750.0
	full := get("smac-1.00", high)
	half := get("smac-0.50", high)
	if half >= full {
		t.Errorf("smac duty 0.5 (%g) should be below no-sleep (%g)", half, full)
	}
	if full >= get("polling", high) {
		t.Errorf("smac no-sleep (%g) should be below polling (%g)", full, get("polling", high))
	}
	table := RenderFig7b(points)
	if !strings.Contains(table, "polling") || !strings.Contains(table, "smac-0.50") {
		t.Errorf("table missing series:\n%s", table)
	}
}

func TestFig7cQuickShape(t *testing.T) {
	points, err := Fig7c(Options{}, QuickFig7c())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		// The figure's invariant: sectors never hurt lifetime.
		if p.Ratio <= 1 {
			t.Errorf("lifetime ratio %v at %d nodes should exceed 1", p.Ratio, p.Nodes)
		}
	}
	table := RenderFig7c(points)
	if !strings.Contains(table, "lifetime ratio") {
		t.Errorf("table malformed:\n%s", table)
	}
}

func TestAblationDelta(t *testing.T) {
	rows, err := AblationDelta(Options{}, []int{15, 30}, 3)
	if err != nil {
		t.Fatal(err)
	}
	const perSensor = 2 // AblationDelta's demand per sensor
	for _, r := range rows {
		if r.Delta < perSensor {
			t.Errorf("delta %d should be at least the per-sensor demand", r.Delta)
		}
		if r.LinearSolves < 1 {
			t.Errorf("solve counts missing: %+v", r)
		}
		// One cold solve per delta from the per-sensor demand up to the
		// optimum, the last one feasible.
		if want := r.Delta - perSensor + 1; r.PaperSolves != want {
			t.Errorf("paper +1 ascent to delta %d: %d solves, want %d", r.Delta, r.PaperSolves, want)
		}
		if r.LinearSolves > r.PaperSolves {
			t.Errorf("bounded ascent slower than the paper's +1 ascent: %+v", r)
		}
	}
	if !strings.Contains(RenderDelta(rows), "delta") {
		t.Error("render malformed")
	}
}

func TestAblationM(t *testing.T) {
	rows, err := AblationM(Options{}, 20, []int{1, 2, 3}, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	// More concurrency can only shorten (or preserve) the schedule.
	if rows[0].DataSlots < rows[len(rows)-1].DataSlots {
		t.Errorf("M=1 slots %v should be >= M=3 slots %v",
			rows[0].DataSlots, rows[len(rows)-1].DataSlots)
	}
	if !strings.Contains(RenderM(rows), "groups tested") {
		t.Error("render malformed")
	}
}

func TestAblationDelay(t *testing.T) {
	rows, err := AblationDelay(Options{}, []int{15}, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].PipelinedSlots <= 0 || rows[0].DelaySlots <= 0 {
		t.Fatalf("bad slot counts: %+v", rows[0])
	}
	if !strings.Contains(RenderDelay(rows), "pipelined") {
		t.Error("render malformed")
	}
}

func TestAblationInterCluster(t *testing.T) {
	rows, err := AblationInterCluster([]int{4, 9}, 10, time.Second, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Channels > 6 {
			t.Errorf("coloring used %d channels", r.Channels)
		}
		if r.ColoredCycle > r.TokenCycle {
			t.Errorf("coloring (%v) must not be worse than token (%v)",
				r.ColoredCycle, r.TokenCycle)
		}
	}
	if !strings.Contains(RenderInterCluster(rows), "token cycle") {
		t.Error("render malformed")
	}
}

func TestAblationInterferenceModel(t *testing.T) {
	res, err := AblationInterferenceModel(Options{}, 25, 5, 13)
	if err != nil {
		t.Fatal(err)
	}
	// SINR-built schedules are collision-free by construction.
	if res.SINRCollisions != 0 {
		t.Fatalf("SINR schedules collided %d times", res.SINRCollisions)
	}
	if res.Trials != 5 {
		t.Fatalf("trials = %d", res.Trials)
	}
}

package alerting

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// driveGauge records a synthetic gauge history and evaluates the rule at
// each tick, returning every transition with its tick index.
type step struct {
	i  int
	tr Transition
}

func driveGauge(t *testing.T, rule Rule, values []float64) []step {
	t.Helper()
	if err := rule.Validate(); err != nil {
		t.Fatal(err)
	}
	h := NewHistory(64)
	ev := newEvaluator(time.Second)
	ev.upsert(rule, tick(0))
	var out []step
	for i, v := range values {
		h.mu.Lock()
		h.record(rule.Expr.Series, obs.KindGauge, Point{T: tick(i), V: v})
		h.mu.Unlock()
		for _, tr := range ev.eval(h, tick(i)) {
			out = append(out, step{i: i, tr: tr})
		}
	}
	return out
}

func TestThresholdForDurationLifecycle(t *testing.T) {
	rule := Rule{
		Name:  "stranded",
		Expr:  Expr{Series: "field_stranded_sensors", Kind: ExprThreshold, Op: OpGT, Value: 0},
		ForMS: 3000, // 3 ticks at 1s
	}
	//            t:  0  1  2  3  4  5  6  7
	trs := driveGauge(t, rule, []float64{0, 2, 2, 2, 2, 2, 0, 0})
	want := []struct {
		i        int
		from, to string
	}{
		{1, StateInactive, StatePending}, // condition trips
		{4, StatePending, StateFiring},   // held 3s (t=1 → t=4)
		{6, StateFiring, StateResolved},  // condition clears
	}
	if len(trs) != len(want) {
		t.Fatalf("transitions = %+v, want %d", trs, len(want))
	}
	for k, w := range want {
		got := trs[k]
		if got.i != w.i || got.tr.From != w.from || got.tr.Alert.State != w.to {
			t.Fatalf("transition %d: tick %d %s→%s, want tick %d %s→%s",
				k, got.i, got.tr.From, got.tr.Alert.State, w.i, w.from, w.to)
		}
	}
	// The firing transition carries the incident timestamp.
	if f := trs[1].tr.Alert.FiredAt; f == nil || !f.Equal(tick(4)) {
		t.Fatalf("FiredAt = %v, want %v", f, tick(4))
	}
	// Resolved keeps FiredAt so the incident stays identifiable.
	if f := trs[2].tr.Alert.FiredAt; f == nil || !f.Equal(tick(4)) {
		t.Fatalf("resolved FiredAt = %v, want %v", f, tick(4))
	}
}

func TestPendingClearsWithoutFiring(t *testing.T) {
	rule := Rule{
		Name:  "flap",
		Expr:  Expr{Series: "g", Kind: ExprThreshold, Op: OpGT, Value: 0},
		ForMS: 5000,
	}
	trs := driveGauge(t, rule, []float64{0, 1, 1, 0, 0})
	if len(trs) != 2 {
		t.Fatalf("transitions = %+v, want pending then back to inactive", trs)
	}
	if trs[0].tr.Alert.State != StatePending || trs[1].tr.Alert.State != StateInactive {
		t.Fatalf("flap produced %s then %s, want pending then inactive",
			trs[0].tr.Alert.State, trs[1].tr.Alert.State)
	}
	if trs[1].tr.Alert.FiredAt != nil {
		t.Fatal("a flap that never fired has a FiredAt")
	}
}

func TestZeroForFiresImmediately(t *testing.T) {
	rule := Rule{
		Name: "instant",
		Expr: Expr{Series: "g", Kind: ExprThreshold, Op: OpGE, Value: 5},
	}
	trs := driveGauge(t, rule, []float64{0, 5})
	if len(trs) != 1 || trs[0].tr.Alert.State != StateFiring || trs[0].i != 1 {
		t.Fatalf("transitions = %+v, want one inactive→firing at tick 1", trs)
	}
}

func TestResolvedReArms(t *testing.T) {
	rule := Rule{
		Name: "rearm",
		Expr: Expr{Series: "g", Kind: ExprThreshold, Op: OpGT, Value: 0},
	}
	trs := driveGauge(t, rule, []float64{1, 0, 1})
	states := []string{}
	for _, s := range trs {
		states = append(states, s.tr.Alert.State)
	}
	want := []string{StateFiring, StateResolved, StateFiring}
	if len(states) != 3 || states[0] != want[0] || states[1] != want[1] || states[2] != want[2] {
		t.Fatalf("states = %v, want %v", states, want)
	}
	// The second firing is a new incident.
	if f := trs[2].tr.Alert.FiredAt; f == nil || !f.Equal(tick(2)) {
		t.Fatalf("re-fire FiredAt = %v, want %v", f, tick(2))
	}
}

func TestAbsentRule(t *testing.T) {
	rule := Rule{
		Name: "silent",
		Expr: Expr{Series: "heartbeat", Kind: ExprAbsent, WindowMS: 2000},
	}
	if err := rule.Validate(); err != nil {
		t.Fatal(err)
	}
	h := NewHistory(16)
	ev := newEvaluator(time.Second)
	ev.upsert(rule, tick(0))
	h.mu.Lock()
	h.record("heartbeat", obs.KindGauge, Point{T: tick(0), V: 1})
	h.mu.Unlock()
	if trs := ev.eval(h, tick(1)); len(trs) != 0 {
		t.Fatalf("fresh series produced %+v", trs)
	}
	// 5 seconds later the last sample is past the 2s window.
	trs := ev.eval(h, tick(5))
	if len(trs) != 1 || trs[0].Alert.State != StateFiring {
		t.Fatalf("stale series produced %+v, want firing", trs)
	}
	// New data resolves it.
	h.mu.Lock()
	h.record("heartbeat", obs.KindGauge, Point{T: tick(6), V: 1})
	h.mu.Unlock()
	trs = ev.eval(h, tick(6))
	if len(trs) != 1 || trs[0].Alert.State != StateResolved {
		t.Fatalf("recovered series produced %+v, want resolved", trs)
	}
}

func TestRateRule(t *testing.T) {
	rule := Rule{
		Name: "spike",
		Expr: Expr{Series: "deaths_total", Kind: ExprRate, Op: OpGT, Value: 2, WindowMS: 10_000},
	}
	if err := rule.Validate(); err != nil {
		t.Fatal(err)
	}
	h := NewHistory(32)
	ev := newEvaluator(time.Second)
	ev.upsert(rule, tick(0))
	// 1/s for 3 ticks: under the 2/s bound.
	for i, v := range []float64{0, 1, 2, 3} {
		h.mu.Lock()
		h.record("deaths_total", obs.KindCounter, Point{T: tick(i), V: v})
		h.mu.Unlock()
		if trs := ev.eval(h, tick(i)); len(trs) != 0 {
			t.Fatalf("slow rate produced %+v at tick %d", trs, i)
		}
	}
	// A burst: +10 per tick pushes the windowed rate over 2/s.
	h.mu.Lock()
	h.record("deaths_total", obs.KindCounter, Point{T: tick(4), V: 13})
	h.mu.Unlock()
	trs := ev.eval(h, tick(4))
	if len(trs) != 1 || trs[0].Alert.State != StateFiring {
		t.Fatalf("burst produced %+v, want firing", trs)
	}
	if trs[0].Alert.Value <= 2 {
		t.Fatalf("firing value = %g, want the computed rate > 2", trs[0].Alert.Value)
	}
}

func TestUpsertResetsState(t *testing.T) {
	rule := Rule{
		Name: "r",
		Expr: Expr{Series: "g", Kind: ExprThreshold, Op: OpGT, Value: 0},
	}
	h := NewHistory(16)
	ev := newEvaluator(time.Second)
	ev.upsert(rule, tick(0))
	h.mu.Lock()
	h.record("g", obs.KindGauge, Point{T: tick(0), V: 1})
	h.mu.Unlock()
	ev.eval(h, tick(0))
	if ev.firing() != 1 {
		t.Fatal("rule did not fire")
	}
	// Replacing the rule resets its machine to inactive.
	ev.upsert(rule, tick(1))
	alerts := ev.alerts()
	if len(alerts) != 1 || alerts[0].State != StateInactive {
		t.Fatalf("after upsert: %+v, want inactive", alerts)
	}
}

func TestRuleValidation(t *testing.T) {
	bad := []Rule{
		{},
		{Name: "x"},
		{Name: "x", Expr: Expr{Series: "s", Kind: "nope"}},
		{Name: "x", Expr: Expr{Series: "s", Kind: ExprThreshold, Op: "=="}},
		{Name: "x", Expr: Expr{Series: "s", Kind: ExprAbsent, Op: OpGT}},
		{Name: "x", Expr: Expr{Series: "s", Kind: ExprThreshold, Op: OpGT}, ForMS: -1},
		{Name: "x", Expr: Expr{Series: "s", Kind: ExprThreshold, Op: OpGT, WindowMS: -1}},
		{Name: "x", Expr: Expr{Series: "s", Kind: ExprThreshold, Op: OpGT}, Severity: "meh"},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad rule %d validated: %+v", i, r)
		}
	}
	for _, r := range DefaultRules() {
		if err := r.Validate(); err != nil {
			t.Errorf("default rule %q invalid: %v", r.Name, err)
		}
	}
}

// TestDefaultShardLatencySkewRule drives the shipped dist-shard-latency-skew
// rule through a straggler incident: skew (max/min seconds-per-cluster
// over one barrier pass's calls) climbs past 3, must dwell the full 60s
// before firing (one slow pass is noise, not a straggler), and resolves
// once the straggler is replaced and the skew falls back.
func TestDefaultShardLatencySkewRule(t *testing.T) {
	var rule Rule
	for _, r := range DefaultRules() {
		if r.Name == "dist-shard-latency-skew" {
			rule = r
		}
	}
	if rule.Name == "" {
		t.Fatal("dist-shard-latency-skew missing from DefaultRules")
	}
	if rule.Expr.Series != "dist_epoch_seconds_skew" {
		t.Fatalf("rule watches %q, want dist_epoch_seconds_skew", rule.Expr.Series)
	}
	// 1s ticks: balanced (2 ticks), straggler skew 4.0 for 62 ticks —
	// enough to cross the 60s dwell — then the straggler is replaced.
	values := make([]float64, 0, 67)
	values = append(values, 1, 1)
	for i := 0; i < 62; i++ {
		values = append(values, 4)
	}
	values = append(values, 1.2, 1.2, 1.2)
	trs := driveGauge(t, rule, values)
	want := []struct {
		i     int
		state string
	}{
		{2, StatePending},   // skew trips the threshold
		{62, StateFiring},   // held 60s (t=2 → t=62)
		{64, StateResolved}, // back below 3
	}
	if len(trs) != len(want) {
		t.Fatalf("transitions = %+v, want %d", trs, len(want))
	}
	for k, w := range want {
		if trs[k].i != w.i || trs[k].tr.Alert.State != w.state {
			t.Fatalf("transition %d: tick %d → %s, want tick %d → %s",
				k, trs[k].i, trs[k].tr.Alert.State, w.i, w.state)
		}
	}
	if rule.Severity != SeverityWarning {
		t.Fatalf("severity %q, want warning (a straggler is a perf problem, not an outage)", rule.Severity)
	}
}

package field

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/topo"
)

// legacyField is the retired sequential helper's result: the field's
// per-cluster summaries and its cycle arithmetic.
type legacyField struct {
	Clusters   int
	Channels   int
	Colors     []int
	PerCluster []*cluster.Summary
	// Stranded counts sensors with no multi-hop path to their head.
	Stranded                 int
	TokenCycle, ColoredCycle time.Duration
	Lifetime                 time.Duration
}

// legacyRunField is the retired sequential cluster.RunField loop, kept
// verbatim as the regression oracle: a one-epoch, churn-free runtime
// must reproduce it bit for bit.
func legacyRunField(f *topo.Field, cfg topo.Config, p cluster.Params, cycles int,
	interferenceRange, batteryJoules float64) (*legacyField, error) {
	if cycles < 1 {
		return nil, fmt.Errorf("cluster: need at least one cycle")
	}
	colors, channels := f.ChannelAssignment(interferenceRange)
	em := energy.DefaultModel()
	out := &legacyField{Channels: channels}
	var duties []time.Duration
	var dutyColors []int
	for k := range f.Heads {
		c, err := f.BuildCluster(k, cfg)
		if err != nil {
			return nil, err
		}
		if c.Sensors() == 0 {
			continue
		}
		r, err := cluster.NewRunner(c, p)
		if err != nil {
			return nil, fmt.Errorf("cluster %d: %w", k, err)
		}
		out.Stranded += len(r.Unreachable)
		s, err := r.Run(cycles)
		if err != nil {
			return nil, fmt.Errorf("cluster %d: %w", k, err)
		}
		out.Clusters++
		out.PerCluster = append(out.PerCluster, s)
		out.Colors = append(out.Colors, colors[k])
		duties = append(duties, s.MeanDuty)
		dutyColors = append(dutyColors, colors[k])
		if len(r.Unreachable) < c.Sensors() { // at least one live sensor
			lt := s.Lifetime(em, batteryJoules)
			if out.Lifetime == 0 || lt < out.Lifetime {
				out.Lifetime = lt
			}
		}
	}
	out.TokenCycle = cluster.TokenRotationCycle(duties)
	colored, err := cluster.ColoredCycle(duties, dutyColors)
	if err != nil {
		return nil, err
	}
	out.ColoredCycle = colored
	return out, nil
}

// TestRunFieldMatchesLegacy holds a one-epoch, churn-free run of the
// engine against the retired sequential loop: every cluster row, the
// coloring, both field cycles, the lifetime estimate and the stranded
// count.
func TestRunFieldMatchesLegacy(t *testing.T) {
	for _, loss := range []float64{0, 0.02} {
		f := topo.BuildField(11, 300, 5, 80)
		cfg := topo.DefaultConfig(0, 0)
		p := cluster.DefaultParams()
		p.RateBps = 20
		p.LossProb = loss
		p.Seed = 42

		want, err := legacyRunField(f, cfg, p, 2, 80, 100)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(f, Config{
			Topo:              cfg,
			Params:            p,
			InterferenceRange: 80,
			BatteryJoules:     100,
			EpochCycles:       2,
			Epochs:            1,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := rt.Run(exp.Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got.Clusters == 0 {
			t.Fatal("no clusters simulated")
		}
		rep := got.Reports[0]
		if got.Clusters != want.Clusters || len(rep.Clusters) != want.Clusters {
			t.Fatalf("loss %v: %d clusters, %d rows, legacy %d", loss, got.Clusters, len(rep.Clusters), want.Clusters)
		}
		for i, row := range rep.Clusters {
			s := want.PerCluster[i]
			if row.Offered != s.Offered || row.Delivered != s.Delivered || row.Retries != s.Retries ||
				row.MeanDuty != s.MeanDuty || row.Fits != s.AllFit {
				t.Fatalf("loss %v: cluster %d row %+v diverges from legacy summary %+v", loss, row.Cluster, row, s)
			}
		}
		if !reflect.DeepEqual(got.Colors, want.Colors) || got.Channels != want.Channels {
			t.Fatalf("loss %v: colors %v over %d channels, legacy %v over %d",
				loss, got.Colors, got.Channels, want.Colors, want.Channels)
		}
		if rep.TokenCycle != want.TokenCycle || rep.ColoredCycle != want.ColoredCycle {
			t.Fatalf("loss %v: cycles %v/%v, legacy %v/%v",
				loss, rep.TokenCycle, rep.ColoredCycle, want.TokenCycle, want.ColoredCycle)
		}
		if got.Lifetime != want.Lifetime {
			t.Fatalf("loss %v: lifetime %v, legacy %v", loss, got.Lifetime, want.Lifetime)
		}
		if len(got.Deaths) != 0 || got.StrandedFinal != want.Stranded {
			t.Fatalf("loss %v: %d deaths, %d stranded; legacy 0 deaths, %d stranded",
				loss, len(got.Deaths), got.StrandedFinal, want.Stranded)
		}
	}
}

func TestNewValidation(t *testing.T) {
	f := topo.BuildField(3, 200, 2, 10)
	cfg := topo.DefaultConfig(0, 0)
	if _, err := New(f, Config{Topo: cfg, Params: cluster.DefaultParams()}); err == nil {
		t.Fatal("non-positive interference range should error")
	}
	bad := cluster.DefaultParams()
	bad.BandwidthBps = 0
	if _, err := New(f, Config{Topo: cfg, Params: bad, InterferenceRange: 80}); err == nil {
		t.Fatal("invalid cluster params should error")
	}
}

func TestEmptyField(t *testing.T) {
	// A field with heads but no sensors: nothing runs, nothing breaks.
	f := topo.BuildField(5, 100, 3, 0)
	cfg := topo.DefaultConfig(0, 0)
	rt, err := New(f, Config{
		Topo: cfg, Params: cluster.DefaultParams(),
		InterferenceRange: 80, BatteryJoules: 100, Epochs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.Run(exp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Clusters != 0 || s.OfferedTotal != 0 || len(s.Deaths) != 0 {
		t.Fatalf("empty field produced activity: %+v", s)
	}
	if s.Epochs != 2 {
		t.Fatalf("epochs = %d, want 2", s.Epochs)
	}
	if s.MaxColoredCycle() != 0 || !s.FitsCycle(0) {
		t.Fatal("empty field must fit the zero cycle")
	}
}

func TestSummaryFitsCycle(t *testing.T) {
	s := &Summary{Reports: []EpochReport{{ColoredCycle: 4 * time.Millisecond}, {ColoredCycle: 10 * time.Millisecond}}}
	if !s.FitsCycle(10 * time.Millisecond) {
		t.Fatal("field must fit exactly its worst colored cycle")
	}
	if !s.FitsCycle(time.Second) {
		t.Fatal("field must fit any longer cycle")
	}
	if s.FitsCycle(10*time.Millisecond - time.Nanosecond) {
		t.Fatal("field cannot fit below its worst colored cycle")
	}
	empty := &Summary{}
	if !empty.FitsCycle(0) {
		t.Fatal("an empty field fits the zero cycle")
	}
}

func TestRunCancellation(t *testing.T) {
	f, cfg := buildChurnField()
	rt, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rt.Run(exp.Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rt.Epoch() != 0 {
		t.Fatalf("canceled run advanced to epoch %d", rt.Epoch())
	}
	// The runtime is still usable: a fresh Run completes the schedule.
	s, err := rt.Run(exp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Epochs != cfg.epochs() {
		t.Fatalf("epochs = %d, want %d", s.Epochs, cfg.epochs())
	}
}

func TestBatteryDepletionKills(t *testing.T) {
	// A near-empty battery: every active sensor dies at the first
	// boundary, with cause "battery", and the next epoch runs dark.
	f := topo.BuildField(11, 200, 2, 30)
	cfg := topo.DefaultConfig(0, 0)
	cfg.SensorRange = 40
	cfg.HeadRange = 200
	p := cluster.DefaultParams()
	p.RateBps = 15
	rt, err := New(f, Config{
		Topo: cfg, Params: p, InterferenceRange: 80,
		BatteryJoules: 1e-9, Epochs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.Run(exp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Deaths) == 0 {
		t.Fatal("no battery deaths at a near-zero capacity")
	}
	for _, d := range s.Deaths {
		if d.Cause != "battery" {
			t.Fatalf("death cause %q, want battery", d.Cause)
		}
	}
	if s.FirstDeath == 0 {
		t.Fatal("FirstDeath not stamped")
	}
	// The heads keep cycling after field-wide depletion, but nobody
	// answers: the last epoch is dark.
	last := s.Reports[len(s.Reports)-1]
	for _, c := range last.Clusters {
		if c.Live != 0 || c.Offered != 0 {
			t.Fatalf("cluster %d still had traffic after field-wide depletion: %+v", c.Cluster, c)
		}
	}
}

// fieldCounters reads the field_* and planner series MergeEpoch emits.
func fieldCounters(reg *obs.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, name := range []string{MetricEpochs, MetricReplans, seriesDeathBattery, seriesDeathFault,
		MetricPlanCacheHits, MetricPlanCacheMisses, routing.MetricSolves, routing.MetricAugmentPaths} {
		out[name] = reg.Counter(name, "").Value()
	}
	for _, name := range []string{MetricStranded, MetricClustersLive} {
		out[name] = reg.Gauge(name, "").Value()
	}
	return out
}

// TestFieldMetricsEmitted pins the field series against the Summary, and
// pins that a distributed run (worker shards merged by MergeEpoch) emits
// the same field_* and planner values as the local Run.
func TestFieldMetricsEmitted(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	f, cfg := buildChurnField()
	rt, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.Run(exp.Options{Workers: 2, Obs: reg.Observer()})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricEpochs, "").Value(); got != float64(s.Epochs) {
		t.Fatalf("%s = %v, want %d", MetricEpochs, got, s.Epochs)
	}
	if got := reg.Counter(MetricReplans, "").Value(); got != float64(s.ReplansTotal) {
		t.Fatalf("%s = %v, want %d", MetricReplans, got, s.ReplansTotal)
	}
	if got := reg.Gauge(MetricStranded, "").Value(); got != float64(s.StrandedFinal) {
		t.Fatalf("%s = %v, want %d", MetricStranded, got, s.StrandedFinal)
	}
	deaths := reg.Counter(seriesDeathBattery, "").Value() + reg.Counter(seriesDeathFault, "").Value()
	if deaths != float64(len(s.Deaths)) {
		t.Fatalf("death counters = %v, want %d", deaths, len(s.Deaths))
	}
	local := fieldCounters(reg)
	if local[routing.MetricSolves] == 0 {
		t.Fatal("a churned run reported no planner solves")
	}

	distReg := obs.NewRegistry()
	workers := []*Runtime{newShardWorker(t), newShardWorker(t)}
	runDistributed(t, workers, func(k int) int { return k % 2 }, distReg.Observer())
	if dist := fieldCounters(distReg); !reflect.DeepEqual(dist, local) {
		t.Fatalf("distributed run emits %v, local run %v", dist, local)
	}
}

// TestCallerPropUntouched: the runtime copies the log-distance model per
// cluster, so a shadow-churn run never writes the caller's model.
func TestCallerPropUntouched(t *testing.T) {
	f, cfg := buildChurnField()
	ld := cfg.Topo.Prop.(*radio.LogDistance)
	rt, err := New(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(exp.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if rt.revForEpoch(rt.Epoch()) == 0 {
		t.Fatal("fixture never shifted the shadowing")
	}
	if ld.ShadowDB != nil {
		t.Fatal("shadow churn wrote the caller's propagation model")
	}
}

package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/radio"
	"repro/internal/topo"
)

func TestParamsValidateSentinels(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Params)
		want error
	}{
		{"valid", func(*Params) {}, nil},
		{"bad M", func(p *Params) { p.M = 0 }, ErrBadM},
		{"M above MaxM", func(p *Params) { p.M = radio.MaxM + 1 }, ErrBadM},
		{"bad bandwidth", func(p *Params) { p.BandwidthBps = 0 }, ErrBadRadio},
		{"bad data size", func(p *Params) { p.DataBytes = -1 }, ErrBadRadio},
		{"bad poll size", func(p *Params) { p.PollBytes = 0 }, ErrBadRadio},
		{"bad ack size", func(p *Params) { p.AckBytes = 0 }, ErrBadRadio},
		{"bad cycle", func(p *Params) { p.Cycle = 0 }, ErrBadCycle},
		{"bad rate", func(p *Params) { p.RateBps = -5 }, ErrBadRate},
		{"negative loss", func(p *Params) { p.LossProb = -0.1 }, ErrBadLoss},
		{"certain loss", func(p *Params) { p.LossProb = 1 }, ErrBadLoss},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			tc.mut(&p)
			err := p.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate = %v", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate = %v, want errors.Is(%v)", err, tc.want)
			}
			// The wrap must keep the message specific, not just the sentinel.
			if err.Error() == tc.want.Error() {
				t.Fatalf("error %q lost the offending value", err)
			}
		})
	}
}

func TestNewRunnerSurfacesValidationError(t *testing.T) {
	c, err := topo.Build(topo.DefaultConfig(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.M = 0
	if _, err := NewRunner(c, p); !errors.Is(err, ErrBadM) {
		t.Fatalf("NewRunner = %v, want errors.Is(ErrBadM)", err)
	}
}

func TestRunnerEmitsMetrics(t *testing.T) {
	c, err := topo.Build(topo.DefaultConfig(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.RateBps = 40
	p.Seed = 1
	r, err := NewRunner(c, p)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	r.Obs = reg.Observer()

	const cycles = 3
	if _, err := r.Run(cycles); err != nil {
		t.Fatal(err)
	}

	byName := map[string]obs.MetricSnapshot{}
	for _, s := range reg.Snapshot() {
		byName[s.Name] = s
	}
	if got := byName[MetricCycles].Value; got != cycles {
		t.Errorf("%s = %v, want %d", MetricCycles, got, cycles)
	}
	// Every phase of the Section II duty cycle must have one sample per
	// cycle with nonzero total duration.
	for _, phase := range []string{"wake", "ack", "poll", "sleep"} {
		s := byName[obs.Series(MetricPhaseSeconds, "phase", phase)]
		if s.Count != cycles || s.Sum <= 0 {
			t.Errorf("phase %q: count=%d sum=%v", phase, s.Count, s.Sum)
		}
	}
	for _, kind := range []string{"ack", "data"} {
		if s := byName[obs.Series(MetricSlotsTotal, "kind", kind)]; s.Value <= 0 {
			t.Errorf("%s slots total = %v", kind, s.Value)
		}
		if s := byName[obs.Series(MetricSlotsPerCycle, "kind", kind)]; s.Count != cycles {
			t.Errorf("%s slots histogram count = %d", kind, s.Count)
		}
	}
	// tx/rx/idle are exercised by any polling cycle; sleep requires the
	// duty to fit, which holds at this size and rate.
	for _, state := range []string{"tx", "rx", "idle", "sleep"} {
		if s := byName[obs.Series(MetricEnergyJoules, "state", state)]; s.Value <= 0 {
			t.Errorf("energy state %q = %v", state, s.Value)
		}
	}
	if s := byName[MetricPacketsDelivered]; s.Value <= 0 {
		t.Errorf("delivered = %v", s.Value)
	}
	if s := byName[MetricActiveFraction]; s.Value <= 0 || s.Value > 1 {
		t.Errorf("active fraction = %v", s.Value)
	}
	// The greedy scheduler triggers exactly one re-poll per detected
	// loss, so the two counters must agree.
	if byName[MetricRepolls].Value != byName[MetricLosses].Value {
		t.Errorf("repolls %v != losses %v",
			byName[MetricRepolls].Value, byName[MetricLosses].Value)
	}
}

func TestRunnerNoObserverUnchanged(t *testing.T) {
	// Baseline determinism: attaching an observer must not change the
	// simulation itself, and leaving it nil must not panic anywhere.
	run := func(o obs.Observer) string {
		c, err := topo.Build(topo.DefaultConfig(15, 2))
		if err != nil {
			t.Fatal(err)
		}
		p := DefaultParams()
		p.Seed = 2
		r, err := NewRunner(c, p)
		if err != nil {
			t.Fatal(err)
		}
		r.Obs = o
		s, err := r.Run(2)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v %d %d %d %.9f",
			s.MeanDuty.Round(time.Nanosecond), s.Offered, s.Delivered,
			s.Retries, s.MeanActive)
	}
	reg := obs.NewRegistry()
	if plain, observed := run(nil), run(reg.Observer()); plain != observed {
		t.Fatalf("observer changed the run: %q vs %q", plain, observed)
	}
}

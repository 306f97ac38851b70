package main

import (
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/service"
)

// serverFleet is a fleet of in-process mhpolld equivalents: a service
// manager and the dist worker API behind one httptest server each — the
// handler stack cmd/mhpolld wires.
type serverFleet struct {
	servers  []*httptest.Server
	managers []*service.Manager
	addrs    []string
}

func startServerFleet(t *testing.T, n int) (fleet, error) {
	f := &serverFleet{}
	for i := 0; i < n; i++ {
		m, err := service.New(service.Config{SpoolDir: t.TempDir()})
		if err != nil {
			f.stop()
			return nil, err
		}
		m.Start()
		api := service.NewServer(m, nil, nil)
		api.Handle("/v1/worker/", dist.NewWorkerHost(service.BuildFieldSpec).Handler())
		ts := httptest.NewServer(api)
		f.servers = append(f.servers, ts)
		f.managers = append(f.managers, m)
		f.addrs = append(f.addrs, ts.URL)
	}
	return f, nil
}

func (f *serverFleet) urls() []string { return f.addrs }

func (f *serverFleet) cpuSeconds() (float64, error) { return selfCPU(), nil }

func (f *serverFleet) peakRSSMB() (float64, error) { return procPeakRSSMB(os.Getpid()) }

func (f *serverFleet) stop() error {
	var errs []error
	for i, ts := range f.servers {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, f.managers[i].Stop(ctx))
		cancel()
	}
	return errors.Join(errs...)
}

// goroutineChild runs the library child's body on a goroutine, wired
// through pipes exactly like the re-executed process.
type goroutineChild struct {
	out   *io.PipeReader
	in    *io.PipeWriter
	errCh chan error
}

func startGoroutineChild(w *workload, seed int64, resultPath string) child {
	outR, outW := io.Pipe()
	inR, inW := io.Pipe()
	c := &goroutineChild{out: outR, in: inW, errCh: make(chan error, 1)}
	go func() {
		err := runChild(w, seed, resultPath, outW, inR)
		outW.CloseWithError(err)
		c.errCh <- err
	}()
	return c
}

func (c *goroutineChild) stdout() io.Reader { return c.out }

func (c *goroutineChild) cpuSeconds() (float64, error) { return selfCPU(), nil }

func (c *goroutineChild) peakRSSMB() (float64, error) { return procPeakRSSMB(os.Getpid()) }

func (c *goroutineChild) finish() error {
	c.in.Close()
	return <-c.errCh
}

// toyWorkloads shrinks every workload to about 300 sensors and 3
// epochs, keeping its shape: path, churn kind, twin and re-plan rule.
func toyWorkloads() []*workload {
	var ws []*workload
	for _, w := range workloads {
		toy := w
		toy.sensors, toy.side, toy.epochs = 300, 350, 3
		switch {
		case w.heads > 100:
			toy.heads = 12
		case w.shadowSigmaDB > 0:
			toy.heads = 3
		default:
			toy.heads = 4
		}
		ws = append(ws, &toy)
	}
	return ws
}

func smokeEnv(t *testing.T) *env {
	return &env{
		dir: t.TempDir(),
		startFleet: func(ctx context.Context, n int) (fleet, error) {
			return startServerFleet(t, n)
		},
		startChild: func(ctx context.Context, w *workload, seed int64, resultPath string) (child, error) {
			return startGoroutineChild(w, seed, resultPath), nil
		},
	}
}

// TestSmokeAllWorkloads drives all four workload shapes at toy size for
// one round through the real job API, SSE stream and library child
// protocol, and requires every correctness check to pass — including
// the byte-identity of the dist and field churn summaries.
func TestSmokeAllWorkloads(t *testing.T) {
	ws := toyWorkloads()
	runs, calibs := measure(context.Background(), smokeEnv(t), ws, 7, schedule{minRounds: 1}, io.Discard)
	verify(runs, 7)
	if len(calibs) != len(ws)+1 {
		t.Fatalf("%d calibrations around %d rounds, want one before and one after each", len(calibs), len(ws))
	}
	for _, wr := range runs {
		if len(wr.rounds) != 1 {
			t.Errorf("%s: %d rounds, want 1", wr.w.name, len(wr.rounds))
		}
		for _, c := range wr.checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", wr.w.name, c.Name, c.Detail)
			}
		}
		if wr.w.twin != "" && !hasCheck(wr, "equals-"+wr.w.twin) {
			t.Errorf("%s: summary never compared with %s", wr.w.name, wr.w.twin)
		}
		ms := e2eMetrics(wr)
		if v := ms["epoch_p50_s"].Value; v == nil || *v <= 0 {
			t.Errorf("%s: epoch_p50_s %v", wr.w.name, v)
		}
		if ms["epoch_tail_s"].Value != nil {
			t.Errorf("%s: tail reported from %d samples", wr.w.name, ms["epoch_tail_s"].Samples)
		}
	}
}

// TestSmokeTrace runs the traced path of every workload shape at toy
// size: the traced round must reproduce the untraced summary and the
// replay must reproduce the program's rows and re-plans. (Replay
// fidelity against CPU time is not asserted: toy epochs are too short
// for it to mean anything.)
func TestSmokeTrace(t *testing.T) {
	e := smokeEnv(t)
	for _, w := range toyWorkloads() {
		tr := &tracer{t0: time.Now(), workload: w.name}
		wr, layers := traceWorkload(context.Background(), e, w, 7, tr)
		for _, c := range wr.checks {
			if !c.OK && c.Name != "replay-fidelity" {
				t.Errorf("%s: check %s failed: %s", w.name, c.Name, c.Detail)
			}
		}
		if layers == nil {
			t.Fatalf("%s: no layer metrics", w.name)
		}
		if layers["routing.plan_ms"] <= 0 || layers["cluster.simulate_ms"] <= 0 {
			t.Errorf("%s: plan %g ms, simulate %g ms", w.name, layers["routing.plan_ms"], layers["cluster.simulate_ms"])
		}
		if w.kind == kindDist && (layers["dist.barrier_ms"] <= 0 || layers["dist.wire_bytes_per_epoch"] <= 0) {
			t.Errorf("%s: barrier %g ms, wire %g bytes", w.name, layers["dist.barrier_ms"], layers["dist.wire_bytes_per_epoch"])
		}
		if w.shadowSigmaDB > 0 && layers["radio.links_refreshed"] <= 0 {
			t.Errorf("%s: no links refreshed under shadow churn", w.name)
		}
		if err := writeTrace(t.TempDir()+"/trace.json", 7, []*tracer{tr}); err != nil {
			t.Fatal(err)
		}
	}
}

func hasCheck(wr *workloadRun, name string) bool {
	for _, c := range wr.checks {
		if c.Name == name {
			return true
		}
	}
	return false
}

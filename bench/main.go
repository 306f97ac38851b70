// Command bench is the repository benchmark. It boots mhpolld daemons
// on loopback (a coordinator and two workers, each with its own spool),
// drives the named workloads as a closed loop with one client — one job
// in flight, the POST and its SSE stream the only connections — checks
// every output, and prints every metric by name and unit. The last line
// of standard output is the machine-readable result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 1 it instead measures each layer (service, dist, field,
// topo, radio, routing, cluster, core) for the per-layer metrics and
// writes every span to trace.json. bench/run.sh builds this program and
// mhpolld from the checkout and runs it from the repository root.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
)

// outDir, under the repository root the benchmark runs from, holds the
// per-run scratch files and trace.json; .gitignore lists it.
const outDir = ".bench_build"

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", 1, "seed every field, churn and params seed derives from")
		seconds      = flag.Int("seconds", 0, "keep starting rounds while they fit in this many seconds per run (0: just -rounds)")
		rounds       = flag.Int("rounds", 3, "minimum rounds per workload")
		traced       = flag.Int("trace", 0, "1 measures each layer instead of the end-to-end metrics")
		mhpolld      = flag.String("mhpolld", "", "mhpolld binary built from this checkout")
		childName    = flag.String("child", "", "run one library round of this workload (internal)")
		childOut     = flag.String("child-out", "", "result path of a library round (internal)")
	)
	flag.Parse()

	if *childName != "" {
		w, err := findWorkload(*childName)
		if err == nil {
			err = runChild(w, *seed, *childOut, os.Stdout, os.Stdin)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 1
		}
		return 0
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	ws := make([]*workload, 0, len(workloads))
	if *workloadName == "all" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else {
		w, err := findWorkload(*workloadName)
		if err != nil {
			return fail(err)
		}
		ws = append(ws, w)
	}
	if *mhpolld == "" {
		return fail(errors.New("-mhpolld is required (bash bench/run.sh builds it)"))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e := processEnv(dir, *mhpolld)

	rep := &report{Seed: *seed, Host: hostInfo{CPUs: runtime.NumCPU(), Go: runtime.Version()}}
	var res result
	if *traced != 0 {
		rep.Mode = "trace"
		res, err = traceAll(ctx, e, spec, ws, *seed, filepath.Join(outDir, "trace.json"), rep)
	} else {
		rep.Mode = "e2e"
		sched := schedule{minRounds: *rounds, minSamples: tailMinSamples, seconds: float64(*seconds)}
		if len(ws) == 1 && *seconds > 0 {
			sched.hardStop = 90 * time.Second
		}
		res, err = measureAll(ctx, e, spec, ws, *seed, sched, rep)
	}
	if err != nil {
		return fail(err)
	}
	if ctx.Err() != nil {
		return fail(ctx.Err())
	}
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s\n%s\n", full, line)
	if !res.Correct {
		return 1
	}
	return 0
}

// fail reports an error that leaves the run without a result.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// processEnv starts the program as real processes: mhpolld daemons for
// the job workloads, this binary in -child mode for the library one.
func processEnv(dir, mhpolld string) *env {
	var fleets atomic.Int64
	return &env{
		dir: dir,
		startFleet: func(ctx context.Context, n int) (fleet, error) {
			d := filepath.Join(dir, fmt.Sprintf("fleet%d", fleets.Add(1)))
			return startDaemons(ctx, mhpolld, d, n)
		},
		startChild: startChildProc,
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the full output: every metric with its samples, every
// round, every check.
type report struct {
	Mode      string           `json:"mode"`
	Seed      int64            `json:"seed"`
	Host      hostInfo         `json:"host"`
	Workloads []workloadReport `json:"workloads"`
}

type hostInfo struct {
	CPUs int    `json:"cpus"`
	Go   string `json:"go"`
	// CalibS times the fixed calibration kernel before the first round
	// and after every round; Noisy flags a set whose calibration spread
	// exceeds 5%.
	CalibS      []float64 `json:"host_calib_s"`
	CalibSpread float64   `json:"calib_spread"`
	Noisy       bool      `json:"noisy"`
}

type workloadReport struct {
	Name          string                 `json:"name"`
	Why           string                 `json:"why"`
	Sensors       int                    `json:"sensors"`
	Epochs        int                    `json:"epochs"`
	SummarySHA256 string                 `json:"summary_sha256"`
	Metrics       map[string]metricValue `json:"metrics"`
	Checks        []check                `json:"checks"`
	Rounds        []*round               `json:"rounds"`
}

// measureAll runs the end-to-end measurement and assembles the report
// and result line. A single workload's metrics keep their plain names;
// with several, each is prefixed by its workload.
func measureAll(ctx context.Context, e *env, spec *benchSpec, ws []*workload, seed int64, sched schedule, rep *report) (result, error) {
	runs, calibs := measure(ctx, e, ws, seed, sched, os.Stderr)
	if ctx.Err() != nil {
		return result{}, nil
	}
	verify(runs, seed)
	rep.Host.CalibS = calibs
	rep.Host.CalibSpread = calibSpread(calibs)
	rep.Host.Noisy = rep.Host.CalibSpread > noisyCalib
	res := result{Correct: true, Metrics: map[string]resultValue{}}
	for _, wr := range runs {
		ms, err := withUnits(spec.EndToEnd, e2eMetrics(wr))
		if err != nil {
			return result{}, err
		}
		if len(wr.rounds) > 0 {
			if err := finite(ms); err != nil {
				wr.add("metrics-complete", false, err.Error())
			}
		}
		rep.Workloads = append(rep.Workloads, wr.report(ms))
		res.add(wr, ms, len(ws) > 1)
	}
	return res, nil
}

// traceAll runs the traced measurement of every workload and writes the
// spans to tracePath.
func traceAll(ctx context.Context, e *env, spec *benchSpec, ws []*workload, seed int64, tracePath string, rep *report) (result, error) {
	res := result{Correct: true, Metrics: map[string]resultValue{}}
	var tracers []*tracer
	for _, w := range ws {
		tr := &tracer{t0: time.Now(), workload: w.name}
		tracers = append(tracers, tr)
		wr, layers := traceWorkload(ctx, e, w, seed, tr)
		if ctx.Err() != nil {
			return result{}, nil
		}
		got := make(map[string]metricValue, len(layers))
		for name, v := range layers {
			got[name] = metricValue{Value: number(v), Samples: w.epochs - 1, Moves: layerTargets[name].movesOn(w.name)}
		}
		ms := map[string]metricValue{}
		if layers != nil {
			var err error
			if ms, err = withUnits(spec.PerLayer, got); err != nil {
				return result{}, err
			}
			if err := finite(ms); err != nil {
				wr.add("metrics-complete", false, err.Error())
			}
		}
		rep.Workloads = append(rep.Workloads, wr.report(ms))
		res.add(wr, ms, len(ws) > 1)
	}
	if err := writeTrace(tracePath, seed, tracers); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "spans written to %s\n", tracePath)
	return res, nil
}

// add folds one workload's outcome into the result line.
func (res *result) add(wr *workloadRun, ms map[string]metricValue, prefix bool) {
	res.Attempted += wr.attempted()
	res.Failed += wr.failed()
	if wr.failed() > 0 || len(ms) == 0 {
		res.Correct = false
	}
	for name, m := range ms {
		if m.Value == nil {
			continue
		}
		if prefix {
			name = wr.w.name + "/" + name
		}
		res.Metrics[name] = resultValue{Value: *m.Value, Unit: m.Unit}
	}
}

func (wr *workloadRun) report(ms map[string]metricValue) workloadReport {
	wp := workloadReport{
		Name: wr.w.name, Why: wr.w.why, Sensors: wr.w.sensors, Epochs: wr.w.epochs,
		Metrics: ms, Checks: wr.checks, Rounds: wr.rounds,
	}
	if len(wr.rounds) > 0 {
		wp.SummarySHA256 = wr.rounds[0].SHA256
	}
	return wp
}

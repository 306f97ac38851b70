package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"repro/internal/exp"
	"repro/internal/field"
)

// workloadRun is everything one run learned about one workload.
type workloadRun struct {
	w      *workload
	rounds []*round
	// err is the round error that stopped measuring the workload.
	err    error
	checks []check
}

// check is one run-level correctness check.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// schedule says how many rounds to run.
type schedule struct {
	// minRounds rounds always run (a setup_s median needs several).
	minRounds int
	// minSamples pooled epochs per workload are always collected (a tail
	// needs tailMinSamples).
	minSamples int
	// seconds, when positive, keeps starting rounds while the longest
	// round so far still fits in the budget.
	seconds float64
	// hardStop, when positive, starts no round after this much time,
	// whatever the minimums say.
	hardStop time.Duration
}

// maxRounds caps a run however fast its rounds are.
const maxRounds = 200

// measure runs rounds of the workloads in rotating order — workload i
// runs at position (i+r) mod n in round r — until the schedule is met.
// The calibration kernel is timed between consecutive rounds, so every
// round has a timing just before and just after it.
func measure(ctx context.Context, e *env, ws []*workload, seed int64, sched schedule, log io.Writer) ([]*workloadRun, []float64) {
	runs := make([]*workloadRun, len(ws))
	for i, w := range ws {
		runs[i] = &workloadRun{w: w}
	}
	start := time.Now()
	calibs := []float64{calibrate()}
	var longest time.Duration
	for r := 0; r < maxRounds && ctx.Err() == nil; r++ {
		if !anyLive(runs) {
			break
		}
		elapsed := time.Since(start)
		if sched.hardStop > 0 && r > 0 && elapsed > sched.hardStop {
			break
		}
		if r >= sched.minRounds && enoughSamples(runs, sched.minSamples) &&
			(sched.seconds <= 0 || (elapsed+longest).Seconds() > sched.seconds) {
			break
		}
		rotation := time.Now()
		for i := range runs {
			wr := runs[(i+r)%len(runs)]
			if wr.err != nil {
				continue
			}
			rd, err := runRound(ctx, e, wr.w, seed)
			calibs = append(calibs, calibrate())
			if err != nil {
				wr.err = err
				fmt.Fprintf(log, "round %d %s: %v\n", r, wr.w.name, err)
				continue
			}
			rd.Round = r
			rd.CalibS = mean(calibs[len(calibs)-2:])
			rd.HostScale = refCalibS / rd.CalibS
			wr.rounds = append(wr.rounds, rd)
			fmt.Fprintf(log, "round %d %-16s setup %.3fs  epoch p50 %.4fs  cpu/epoch %.3fs  rss %.0fMB  host x%.3f  %s\n",
				r, wr.w.name, rd.SetupS, median(rd.EpochS), rd.CPUS/float64(max(len(rd.EpochS), 1)), rd.RSSMB, rd.HostScale, rd.SHA256[:12])
		}
		longest = max(longest, time.Since(rotation))
	}
	return runs, calibs
}

func anyLive(runs []*workloadRun) bool {
	for _, wr := range runs {
		if wr.err == nil {
			return true
		}
	}
	return false
}

// enoughSamples reports whether every live workload has pooled at
// least min epoch gaps.
func enoughSamples(runs []*workloadRun, min int) bool {
	for _, wr := range runs {
		if wr.err == nil && wr.pooled() < min {
			return false
		}
	}
	return true
}

// pooled counts the workload's timed epochs across rounds.
func (wr *workloadRun) pooled() int {
	n := 0
	for _, r := range wr.rounds {
		n += len(r.EpochS)
	}
	return n
}

// refCalibS is calibrate's time on the reference host (2 vCPUs of a
// KVM guest on an Intel Xeon) when it runs at full speed.
const refCalibS = 0.060

// calibrate times a fixed CPU kernel (sha256 over a buffer, then a
// sort). It measures how fast the host is running: its own code never
// changes, so any change in its time comes from the host.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	keys := make([]uint64, 1<<17)
	start := time.Now()
	for i := 0; i < 64; i++ {
		sum := sha256.Sum256(buf)
		buf[i] = sum[0]
	}
	for i := range keys {
		keys[i] = hashMix(uint64(i), uint64(buf[i&1023]))
	}
	slices.Sort(keys)
	return time.Since(start).Seconds()
}

// verify runs the run-level correctness checks: every round clean,
// identical summaries across rounds (same seed, fresh processes), and
// for a workload with a twin, a summary byte-identical to the twin's —
// from the twin's own rounds when it ran too, otherwise from an
// in-process library reference of the same spec.
func verify(runs []*workloadRun, seed int64) {
	byName := make(map[string]*workloadRun, len(runs))
	for _, wr := range runs {
		byName[wr.w.name] = wr
	}
	for _, wr := range runs {
		if wr.err != nil {
			wr.add("rounds-complete", false, wr.err.Error())
			continue
		}
		if len(wr.rounds) == 0 {
			wr.add("rounds-complete", false, "no rounds ran")
			continue
		}
		wr.add("rounds-complete", true, fmt.Sprintf("%d rounds", len(wr.rounds)))
		for _, r := range wr.rounds {
			for _, f := range r.Failures {
				wr.add(fmt.Sprintf("round-%d", r.Round), false, f)
			}
		}
		first := wr.rounds[0]
		same := true
		for _, r := range wr.rounds[1:] {
			same = same && bytes.Equal(r.result, first.result)
		}
		wr.add("rounds-identical", same, first.SHA256)
		if wr.w.twin == "" {
			continue
		}
		if tw := byName[wr.w.twin]; tw != nil {
			if len(tw.rounds) > 0 {
				ok := bytes.Equal(tw.rounds[0].result, first.result)
				wr.add("equals-"+tw.w.name, ok, tw.rounds[0].SHA256)
			}
			continue
		}
		ref, err := reference(wr.w, seed)
		if err != nil {
			wr.add("equals-library-reference", false, err.Error())
			continue
		}
		wr.add("equals-library-reference", bytes.Equal(ref, first.result), fmt.Sprintf("%x", sha256.Sum256(ref)))
	}
}

func (wr *workloadRun) add(name string, ok bool, detail string) {
	wr.checks = append(wr.checks, check{Name: name, OK: ok, Detail: detail})
}

// failed counts the run's failures: every failed check (including each
// round's) and every round that errored.
func (wr *workloadRun) failed() int {
	n := 0
	for _, c := range wr.checks {
		if !c.OK {
			n++
		}
	}
	return n
}

// attempted counts the rounds started plus the run-level checks made.
func (wr *workloadRun) attempted() int {
	n := len(wr.rounds) + len(wr.checks)
	if wr.err != nil {
		n++
	}
	return n
}

// reference runs w's spec through the field library in this process
// and returns the compact summary JSON the program must match.
func reference(w *workload, seed int64) ([]byte, error) {
	f, cfg, err := w.build(seed)
	if err != nil {
		return nil, err
	}
	rt, err := field.New(f, cfg)
	if err != nil {
		return nil, err
	}
	sum, err := rt.Run(exp.Options{Workers: fieldWorkers})
	if err != nil {
		return nil, err
	}
	return json.Marshal(sum)
}

// e2eMetrics computes the end-to-end metrics of one workload: each is
// the median over rounds of the round's value, except the tail, which
// pools every round's epochs. Times and rates are host-normalized: a
// round's are scaled by its HostScale, which states them at the
// reference host's speed. On the reference host, the same code measured
// minutes apart moves by 20-40% in raw times; the calibration kernel
// moves with it and the scaled times move far less.
func e2eMetrics(wr *workloadRun) map[string]metricValue {
	var setup, p50, eps, seps, cpu, rss, pooled []float64
	for _, r := range wr.rounds {
		n, k := float64(len(r.EpochS)), r.HostScale
		setup = append(setup, k*r.SetupS)
		p50 = append(p50, k*median(r.EpochS))
		eps = append(eps, n/(k*r.SpanS))
		seps = append(seps, float64(wr.w.sensors)*n/(k*r.SpanS))
		cpu = append(cpu, k*r.CPUS/n)
		rss = append(rss, r.RSSMB)
		for _, g := range r.EpochS {
			pooled = append(pooled, k*g)
		}
	}
	perRound := func(xs []float64) metricValue {
		return metricValue{Value: number(median(xs)), Samples: len(xs), PerRound: xs}
	}
	tv, pct, ok := tail(pooled)
	tm := metricValue{Samples: len(pooled), Percentile: pct}
	if ok {
		tm.Value = number(tv)
	}
	return map[string]metricValue{
		"sensor_epochs_per_s": perRound(seps),
		"epochs_per_s":        perRound(eps),
		"epoch_p50_s":         perRound(p50),
		"epoch_tail_s":        tm,
		"setup_s":             perRound(setup),
		"cpu_s_per_epoch":     perRound(cpu),
		"peak_rss_mb":         perRound(rss),
	}
}

// calibSpread is the relative spread (max-min)/median of the
// calibration timings; above noisyCalib the set is flagged noisy.
func calibSpread(calibs []float64) float64 {
	if len(calibs) < 2 {
		return 0
	}
	return (slices.Max(calibs) - slices.Min(calibs)) / median(calibs)
}

const noisyCalib = 0.05

// finite reports whether every metric has a value.
func finite(ms map[string]metricValue) error {
	for name, m := range ms {
		if m.Value == nil || math.IsNaN(*m.Value) {
			return fmt.Errorf("metric %s has no value (%d samples)", name, m.Samples)
		}
	}
	return nil
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/field"
	"repro/internal/service"
)

// roundTimeout bounds one round, so a wedged program cannot hold the
// benchmark past its time limit.
const roundTimeout = 60 * time.Second

// round is one job (or library child) of one workload: fresh processes,
// setup, the timed epochs, and the output.
type round struct {
	Workload string `json:"workload"`
	Round    int    `json:"round"`
	// CalibS is the mean calibration time just before and just after
	// the round; HostScale = refCalibS / CalibS converts the round's raw
	// times below to the reference host's speed.
	CalibS    float64 `json:"host_calib_s"`
	HostScale float64 `json:"host_scale"`
	// SetupS (raw, like every time here) runs from the POST (or the
	// child's start) to the epoch-0 report: field build on every
	// process, worker open, cold epoch.
	SetupS float64 `json:"setup_s"`
	// EpochS holds the gaps between successive epoch reports after
	// epoch 0, as the client saw them.
	EpochS []float64 `json:"epoch_s"`
	// SpanS runs from the epoch-0 report to the last one.
	SpanS float64 `json:"timed_span_s"`
	// CPUS is the program processes' CPU over the same span.
	CPUS        float64 `json:"cpu_s"`
	RSSMB       float64 `json:"peak_rss_mb"`
	SubmitMS    float64 `json:"submit_ms,omitempty"`
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	SHA256      string  `json:"summary_sha256"`
	// Failures lists the round's failed correctness checks.
	Failures []string `json:"failures,omitempty"`

	result  []byte // compacted summary JSON
	summary *field.Summary
}

// runRound runs one round of w and checks its output.
func runRound(ctx context.Context, e *env, w *workload, seed int64) (*round, error) {
	ctx, cancel := context.WithTimeout(ctx, roundTimeout)
	defer cancel()
	var r *round
	var err error
	if w.kind == kindLibrary {
		r, err = runChildRound(ctx, e, w, seed)
	} else {
		r, err = runJobRound(ctx, e, w, seed)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.Workload = w.name
	r.Failures = append(r.Failures, checkSummary(w, r.summary)...)
	return r, nil
}

// epochClock turns epoch reports into arrival times. It rejects
// reports out of order, so a gap always spans exactly one epoch.
type epochClock struct {
	now func() float64
	at  []float64
}

// mark records the arrival of epoch n's report.
func (c *epochClock) mark(n int) error {
	if n != len(c.at) {
		return fmt.Errorf("epoch report %d arrived after %d reports", n, len(c.at))
	}
	c.at = append(c.at, c.now())
	return nil
}

// setupAndGaps splits arrival times into the setup time (to epoch 0)
// and the gaps between later epochs.
func (c *epochClock) setupAndGaps() (setup float64, gaps []float64) {
	if len(c.at) == 0 {
		return 0, nil
	}
	for i := 1; i < len(c.at); i++ {
		gaps = append(gaps, c.at[i]-c.at[i-1])
	}
	return c.at[0], gaps
}

// readSSE reads a text/event-stream, calling fn with each event's name
// and data, until the stream ends.
func readSSE(r io.Reader, fn func(name string, data []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	var name string
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if name != "" || data != nil {
				if err := fn(name, data); err != nil {
					return err
				}
			}
			name, data = "", nil
		case strings.HasPrefix(line, "event:"):
			name = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			if data != nil {
				data = append(data, '\n')
			}
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		}
	}
	return sc.Err()
}

// followEpochs reads a job's event stream to its end, marking every
// epoch report on clock and calling at(n) right after epoch n's mark.
func followEpochs(r io.Reader, clock *epochClock, at func(n int) error) error {
	return readSSE(r, func(name string, data []byte) error {
		if name != "epoch" {
			return nil
		}
		var ev struct {
			Epoch int `json:"epoch"`
		}
		if err := json.Unmarshal(data, &ev); err != nil {
			return fmt.Errorf("epoch event: %w", err)
		}
		if err := clock.mark(ev.Epoch); err != nil {
			return err
		}
		return at(ev.Epoch)
	})
}

// runJobRound submits one job to a fresh fleet and follows it over SSE.
// One client: the POST and the SSE stream are the only connections.
func runJobRound(ctx context.Context, e *env, w *workload, seed int64) (r *round, err error) {
	fl, err := e.startFleet(ctx, w.processes())
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := fl.stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	urls := fl.urls()
	body, err := json.Marshal(w.jobSpec(seed, urls[1:]))
	if err != nil {
		return nil, err
	}
	r = &round{}
	t0 := time.Now()
	var job service.Job
	if err := doJSON(ctx, http.MethodPost, urls[0]+"/v1/jobs", body, http.StatusAccepted, &job); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	r.SubmitMS = ms(time.Since(t0))

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, urls[0]+"/v1/jobs/"+job.ID+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	clock := &epochClock{now: func() float64 { return time.Since(t0).Seconds() }}
	var cpu0, cpuN float64
	err = followEpochs(resp.Body, clock, func(n int) (err error) {
		switch n {
		case 0:
			cpu0, err = fl.cpuSeconds()
		case w.epochs - 1:
			cpuN, err = fl.cpuSeconds()
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}

	var fin service.Job
	if err := doJSON(ctx, http.MethodGet, urls[0]+"/v1/jobs/"+job.ID, nil, http.StatusOK, &fin); err != nil {
		return nil, fmt.Errorf("job detail: %w", err)
	}
	if r.RSSMB, err = fl.peakRSSMB(); err != nil {
		return nil, err
	}
	if fin.State != service.StateDone {
		return nil, fmt.Errorf("job %s ended %s: %s", job.ID, fin.State, fin.Error)
	}
	if fin.Epoch != w.epochs {
		r.Failures = append(r.Failures, fmt.Sprintf("job committed %d epochs, want %d", fin.Epoch, w.epochs))
	}
	if fin.Started != nil {
		r.QueueWaitMS = ms(fin.Started.Sub(fin.Created))
	}
	r.timing(clock, cpuN-cpu0, w)
	if err := r.setResult(fin.Result); err != nil {
		return nil, err
	}
	return r, nil
}

// runChildRound runs one library child and follows its epoch reports.
func runChildRound(ctx context.Context, e *env, w *workload, seed int64) (*round, error) {
	resultPath := filepath.Join(e.dir, "child-result.json")
	t0 := time.Now()
	ch, err := e.startChild(ctx, w, seed, resultPath)
	if err != nil {
		return nil, err
	}
	r := &round{}
	clock := &epochClock{now: func() float64 { return time.Since(t0).Seconds() }}
	var cpu0, cpuN float64
	sc := bufio.NewScanner(ch.stdout())
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "done" {
			done = true
			break
		}
		n, err := strconv.Atoi(strings.TrimPrefix(line, "epoch "))
		if err == nil {
			err = clock.mark(n)
		}
		if err == nil && n == 0 {
			cpu0, err = ch.cpuSeconds()
		}
		if err == nil && n == w.epochs-1 {
			cpuN, err = ch.cpuSeconds()
		}
		if err != nil {
			return nil, errors.Join(fmt.Errorf("child report %q: %w", line, err), ch.finish())
		}
	}
	if !done {
		ferr := ch.finish()
		return nil, fmt.Errorf("child ended without a result: %v", errors.Join(sc.Err(), ferr))
	}
	rss, err := ch.peakRSSMB()
	if ferr := ch.finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	r.RSSMB = rss
	r.timing(clock, cpuN-cpu0, w)
	raw, err := os.ReadFile(resultPath)
	if err != nil {
		return nil, err
	}
	if err := os.Remove(resultPath); err != nil {
		return nil, err
	}
	if err := r.setResult(raw); err != nil {
		return nil, err
	}
	return r, nil
}

// timing fills the round's timings from its epoch clock.
func (r *round) timing(c *epochClock, cpu float64, w *workload) {
	r.SetupS, r.EpochS = c.setupAndGaps()
	if n := len(c.at); n > 0 {
		r.SpanS = c.at[n-1] - c.at[0]
	}
	r.CPUS = cpu
	if len(c.at) != w.epochs {
		r.Failures = append(r.Failures, fmt.Sprintf("saw %d epoch reports, want %d", len(c.at), w.epochs))
	}
}

// setResult decodes and fingerprints the round's summary. The digest is
// over compacted JSON, so it does not depend on how the API indents.
func (r *round) setResult(raw []byte) error {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return fmt.Errorf("result: %w", err)
	}
	r.result = buf.Bytes()
	sum := sha256.Sum256(r.result)
	r.SHA256 = hex.EncodeToString(sum[:])
	r.summary = &field.Summary{}
	if err := json.Unmarshal(r.result, r.summary); err != nil {
		return fmt.Errorf("result: %w", err)
	}
	return nil
}

// checkSummary applies the per-round correctness gate to a summary.
func checkSummary(w *workload, s *field.Summary) []string {
	var fails []string
	if s.Epochs != w.epochs {
		fails = append(fails, fmt.Sprintf("summary has %d epochs, want %d", s.Epochs, w.epochs))
	}
	if w.replanAll {
		if want := 0.9 * float64(s.Clusters*w.epochs); float64(s.ReplansTotal) < want {
			fails = append(fails, fmt.Sprintf("replans_total %d < 90%% of %d clusters x %d epochs", s.ReplansTotal, s.Clusters, w.epochs))
		}
	} else if s.ReplansTotal != 0 {
		fails = append(fails, fmt.Sprintf("replans_total %d, want 0", s.ReplansTotal))
	}
	return fails
}

// doJSON runs one API call, checks its status and decodes its body.
func doJSON(ctx context.Context, method, url string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runChild is the library child's body: build the field, run its
// epochs on the program's shard workers, report each epoch on out,
// write the summary, and hold the process (and its counters) until the
// parent closes in.
func runChild(w *workload, seed int64, resultPath string, out io.Writer, in io.Reader) error {
	f, cfg, err := w.build(seed)
	if err != nil {
		return err
	}
	rt, err := field.New(f, cfg)
	if err != nil {
		return err
	}
	for e := 0; e < w.epochs; e++ {
		if _, err := rt.RunEpoch(exp.Options{Workers: fieldWorkers}); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(out, "epoch %d\n", e); err != nil {
			return err
		}
	}
	data, err := json.Marshal(rt.Summary())
	if err != nil {
		return err
	}
	if err := os.WriteFile(resultPath, data, 0o644); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(out, "done"); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, in)
	return err
}

package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/alerting"
	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/routing"
)

// newTestServer wires a manager + registry + HTTP server the way
// cmd/mhpolld does.
func newTestServer(t *testing.T, workers, queueDepth int) (*httptest.Server, *Manager) {
	t.Helper()
	reg := obs.NewRegistry()
	cluster.RegisterMetrics(reg)
	field.RegisterMetrics(reg)
	routing.RegisterMetrics(reg)
	RegisterMetrics(reg)
	m, err := New(Config{
		SpoolDir:   t.TempDir(),
		Workers:    workers,
		QueueDepth: queueDepth,
		Obs:        reg.Observer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	ts := httptest.NewServer(NewServer(m, reg, nil))
	t.Cleanup(func() {
		ts.Close()
		stopManager(t, m)
	})
	return ts, m
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// fieldSpecJSON is the curl-able form of a tiny field job.
const fieldSpecJSON = `{
  "type": "field",
  "workers": 2,
  "field": {
    "seed": 19, "side": 300, "heads": 5, "sensors": 90,
    "sensor_range": 40, "interference_range": 80,
    "battery_joules": 200, "epoch_cycles": 2, "epochs": %d,
    "fault_rate": 0.5,
    "params": {"rate_bps": 15, "cycle_ms": 10000, "seed": 7, "use_sectors": true}
  }
}`

// TestHTTPLifecycle drives a full job through the HTTP API: submit,
// list, SSE progress, metrics-while-running, completion with result.
func TestHTTPLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, 1, 8)

	// Submit.
	resp, body := postJSON(t, ts.URL+"/v1/jobs", fmt.Sprintf(fieldSpecJSON, 6))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var j Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	if j.ID == "" || j.State != StateQueued || j.Epochs != 6 {
		t.Fatalf("submit response: %+v", j)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+j.ID {
		t.Fatalf("Location = %q", loc)
	}

	// SSE: subscribe before completion, collect until the stream closes.
	type sse struct {
		events []string
		datas  []string
	}
	done := make(chan sse, 1)
	go func() {
		var got sse
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
		if err != nil {
			done <- got
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "event: ") {
				got.events = append(got.events, strings.TrimPrefix(line, "event: "))
			}
			if strings.HasPrefix(line, "data: ") {
				got.datas = append(got.datas, strings.TrimPrefix(line, "data: "))
			}
		}
		done <- got
	}()

	// Metrics must be scrapeable while the job executes.
	deadline := time.Now().Add(60 * time.Second)
	sawRunning := false
	for !sawRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never observed running via /metrics+/v1/jobs")
		}
		var cur Job
		getJSON(t, ts.URL+"/v1/jobs/"+j.ID, &cur)
		if cur.State.Terminal() {
			break // too fast to catch mid-flight; scrape checked below anyway
		}
		if cur.State != StateRunning {
			time.Sleep(time.Millisecond)
			continue
		}
		mresp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var mbuf bytes.Buffer
		if _, err := mbuf.ReadFrom(mresp.Body); err != nil {
			t.Fatal(err)
		}
		mresp.Body.Close()
		if mresp.StatusCode != 200 {
			t.Fatalf("metrics while running: %d", mresp.StatusCode)
		}
		if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("metrics content type %q", ct)
		}
		if !strings.Contains(mbuf.String(), "service_jobs_running 1") {
			// The job may have finished between the state check and the
			// scrape; only a scrape taken while it is still running must
			// show the gauge.
			var recheck Job
			getJSON(t, ts.URL+"/v1/jobs/"+j.ID, &recheck)
			if !recheck.State.Terminal() {
				t.Fatalf("scrape during run lacks running gauge:\n%.400s", mbuf.String())
			}
			break
		}
		sawRunning = true
	}

	// Wait for completion over HTTP.
	var fin Job
	for {
		getJSON(t, ts.URL+"/v1/jobs/"+j.ID, &fin)
		if fin.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %+v", fin)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if fin.State != StateDone {
		t.Fatalf("finished %s (%s)", fin.State, fin.Error)
	}
	var sum field.Summary
	if err := json.Unmarshal(fin.Result, &sum); err != nil {
		t.Fatalf("result is not a field summary: %v", err)
	}
	if sum.Epochs != 6 {
		t.Fatalf("summary epochs = %d", sum.Epochs)
	}

	// List view includes the job, without the result payload.
	var list struct{ Jobs []Job }
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != j.ID {
		t.Fatalf("list: %+v", list)
	}
	if list.Jobs[0].Result != nil {
		t.Fatal("list view leaked result payload")
	}

	// The SSE stream must have closed with epoch progress plus a
	// terminal state event.
	got := <-done
	epochs, states := 0, 0
	for _, e := range got.events {
		switch e {
		case "epoch":
			epochs++
		case "state":
			states++
		}
	}
	if epochs != 6 {
		t.Fatalf("SSE delivered %d epoch events, want 6 (events %v)", epochs, got.events)
	}
	if states == 0 {
		t.Fatal("SSE delivered no state events")
	}
	last := got.datas[len(got.datas)-1]
	if !strings.Contains(last, `"done"`) {
		t.Fatalf("last SSE event is not terminal: %s", last)
	}

	// Final metrics: done counter moved.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	if _, err := mbuf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	for _, want := range []string{
		`service_jobs_finished_total{state="done"} 1`,
		"service_jobs_submitted_total 1",
		"field_epochs_total 6",
		"service_checkpoints_total 6",
		"field_plan_cache_hits_total",
		"field_plan_cache_misses_total",
		"routing_solves_total",
		"routing_augment_paths_total",
	} {
		if !strings.Contains(mbuf.String(), want) {
			t.Errorf("final metrics lack %q", want)
		}
	}
}

// TestHTTPErrors covers the 4xx surface: bad JSON, unknown fields,
// bytes after the spec, unknown job, cancel conflicts and queue backpressure.
func TestHTTPErrors(t *testing.T) {
	ts, m := newTestServer(t, 1, 1)

	// Malformed and invalid specs.
	for _, body := range []string{
		"{not json",
		`{"type":"field"}`,
		`{"type":"field","bogus_field":1}`,
		`{"type":"probe","probe":{}}{"type":"field"}`,
		`{"type":"probe","probe":{}} garbage`,
	} {
		resp, _ := postJSON(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %q: %d, want 400", body, resp.StatusCode)
		}
	}

	// Unknown job.
	if resp := getJSON(t, ts.URL+"/v1/jobs/deadbeef00000000", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d", resp.StatusCode)
	}

	// Fill the single worker + single queue slot, then overflow. The
	// blocker's epoch count only needs to outlast the two submits below
	// (it is cancelled, never finished) — large enough that a loaded
	// machine cannot finish it first and turn the 429 into a 202.
	resp1, body1 := postJSON(t, ts.URL+"/v1/jobs", fmt.Sprintf(fieldSpecJSON, 5000))
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp1.StatusCode, body1)
	}
	var j1 Job
	if err := json.Unmarshal(body1, &j1); err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, j1.ID, 30*time.Second, func(x Job) bool { return x.State == StateRunning })
	resp2, _ := postJSON(t, ts.URL+"/v1/jobs", fmt.Sprintf(fieldSpecJSON, 1))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp2.StatusCode)
	}
	resp3, body3 := postJSON(t, ts.URL+"/v1/jobs", fmt.Sprintf(fieldSpecJSON, 1))
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d %s, want 429", resp3.StatusCode, body3)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Cancel the runner via DELETE; second cancel conflicts.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j1.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", dresp.StatusCode)
	}
	waitJob(t, m, j1.ID, 30*time.Second, func(x Job) bool { return x.State.Terminal() })
	cresp, _ := postJSON(t, ts.URL+"/v1/jobs/"+j1.ID+"/cancel", "")
	if cresp.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel: %d, want 409", cresp.StatusCode)
	}

	// Events for an unknown job 404s.
	if resp := getJSON(t, ts.URL+"/v1/jobs/ffffffffffffffff/events", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown events: %d", resp.StatusCode)
	}

	// Healthz.
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
}

// TestHTTPRejectsBadFieldParams: a field spec's cluster params are
// validated at POST, for field and dist_field jobs alike, so a bad M or
// loss probability is a 400 and never reaches a worker.
func TestHTTPRejectsBadFieldParams(t *testing.T) {
	ts, m := newTestServer(t, 1, 4)
	fieldObj := func(params string) string {
		return `{"seed": 19, "side": 300, "heads": 5, "sensors": 90,
			"sensor_range": 40, "interference_range": 80, "params": ` + params + `}`
	}
	for _, params := range []string{
		`{"m": 5}`, `{"loss_prob": 1.5}`,
		`{"m": -1}`, `{"loss_prob": -0.5}`, `{"rate_bps": -3}`, `{"cycle_ms": -5}`, `{"data_bytes": -80}`,
	} {
		for _, body := range []string{
			`{"type":"field","field":` + fieldObj(params) + `}`,
			`{"type":"dist_field","dist":{"field":` + fieldObj(params) + `,"workers":["http://127.0.0.1:1"]}}`,
		} {
			resp, out := postJSON(t, ts.URL+"/v1/jobs", body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("params %s: %d %s, want 400", params, resp.StatusCode, out)
			}
		}
	}
	if got := len(m.Jobs()); got != 0 {
		t.Fatalf("%d jobs in store after rejected submissions", got)
	}
}

// TestHTTPSubmitSpoolFailure: a valid spec the spool cannot record is the
// server's fault, so it answers 500 and leaves no job behind, while an
// invalid spec still answers 400.
func TestHTTPSubmitSpoolFailure(t *testing.T) {
	ts, m := newTestServer(t, 1, 8)
	// A regular file where the spool directory was: every job directory
	// under it fails to be created, whatever the process's privileges.
	dir := m.spool.Dir()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"type":"probe","probe":{}}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("submit on a broken spool: %d %s, want 500", resp.StatusCode, body)
	}
	var list struct {
		Jobs  []Job `json:"jobs"`
		Total int   `json:"total"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 0 || list.Total != 0 {
		t.Errorf("failed submit left jobs behind: %+v", list)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"type":"probe"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid spec on a broken spool: %d %s, want 400", resp.StatusCode, body)
	}
}

// TestSSETerminalReplay: subscribing to a job that is already finished
// yields exactly one terminal state event and EOF — including after a
// process restart when the in-memory feed is gone.
func TestSSETerminalReplay(t *testing.T) {
	spool := t.TempDir()
	m, err := New(Config{SpoolDir: spool, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	j, err := m.Submit(testFieldSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, j.ID, 60*time.Second, func(x Job) bool { return x.State.Terminal() })
	stopManager(t, m)

	// Fresh process: no feed history survives, the terminal state is
	// synthesized from the recovered manifest.
	m2, err := New(Config{SpoolDir: spool, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	m2.Start()
	ts := httptest.NewServer(NewServer(m2, nil, nil))
	defer func() {
		ts.Close()
		stopManager(t, m2)
	}()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil { // returns at feed close
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "event: state") || !strings.Contains(s, `"done"`) {
		t.Fatalf("terminal replay stream:\n%s", s)
	}
}

// TestShutdownEndsAttachedStreams pins a prompt drain: with an alerts
// stream and a job-events stream attached, Shutdown of the daemon's
// server returns within a second instead of waiting for the streams'
// clients to hang up.
func TestShutdownEndsAttachedStreams(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	alerting.RegisterMetrics(reg)
	m, err := New(Config{SpoolDir: t.TempDir(), Workers: 1, QueueDepth: 4, Obs: reg.Observer()})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer stopManager(t, m)
	api := NewServer(m, reg, nil)
	api.Handle("/v1/alerts/", alerting.New(alerting.Config{Registry: reg}).Handler())
	srv := NewHTTPServer("", api)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// A long probe keeps its job feed open while the stream is attached.
	resp, body := postJSON(t, base+"/v1/jobs", `{"type":"probe","probe":{"sleep_ms":60000}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/alerts/events", "/v1/jobs/" + job.ID + "/events"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with attached streams: %v after %s", err, time.Since(start))
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("shutdown took %s with attached streams, want under 1s", took)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("serve: %v", err)
	}
}

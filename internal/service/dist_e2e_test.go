package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
)

// distFieldObj is the FieldSpec both halves of the distributed e2e test
// share: the dist job runs it across workers, the plain field job runs
// it locally, and the two results must be byte-identical.
const distFieldObj = `{
  "seed": 19, "side": 300, "heads": 5, "sensors": 90,
  "sensor_range": 40, "interference_range": 80,
  "battery_joules": 200, "epoch_cycles": 2, "epochs": 4,
  "fault_rate": 0.5,
  "params": {"rate_bps": 15, "cycle_ms": 10000, "seed": 7, "use_sectors": true}
}`

// submitAndFinish posts a job spec and waits for it to go terminal,
// returning the final job (with result).
func submitAndFinish(t *testing.T, ts *httptest.Server, m *Manager, spec string) Job {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var j Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, m, j.ID, 120*time.Second, func(x Job) bool { return x.State.Terminal() })
	if fin.State != StateDone {
		t.Fatalf("job %s finished %s: %s", j.ID, fin.State, fin.Error)
	}
	var full Job
	getJSON(t, ts.URL+"/v1/jobs/"+j.ID, &full)
	if len(full.Result) == 0 {
		t.Fatalf("job %s done without a result", j.ID)
	}
	return full
}

// scrapeMetrics reads a daemon's /metrics exposition into series → value.
func scrapeMetrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// fieldSeries are the field_* series the default alert rules read; a
// dist_field job must move them exactly as a field job does.
var fieldSeries = []string{
	"field_epochs_total",
	`field_deaths_total{cause="battery"}`,
	`field_deaths_total{cause="fault"}`,
	"field_replans_total",
	"field_plan_cache_hits_total",
	"field_plan_cache_misses_total",
}

// TestDistFieldJobEndToEnd drives a dist_field job through the whole
// deployment shape cmd/mhpolld wires: a coordinator daemon (manager +
// HTTP API) and two worker daemons serving the /v1/worker API, all
// speaking real HTTP. The distributed result must be byte-identical to
// a plain field job over the same FieldSpec, and the coordinator must
// emit the same field_* series values the plain job does.
func TestDistFieldJobEndToEnd(t *testing.T) {
	ts, m := newTestServer(t, 1, 8)

	// Two worker daemons: the same WorkerHost mount mhpolld installs.
	var workers []string
	for i := 0; i < 2; i++ {
		wh := dist.NewWorkerHost(BuildFieldSpec)
		ws := httptest.NewServer(wh.Handler())
		defer ws.Close()
		workers = append(workers, ws.URL)
	}

	before := scrapeMetrics(t, ts)
	local := submitAndFinish(t, ts, m, `{"type":"field","workers":2,"field":`+distFieldObj+`}`)
	afterLocal := scrapeMetrics(t, ts)

	distSpec := fmt.Sprintf(`{"type":"dist_field","dist":{"field":%s,"workers":[%q,%q]}}`,
		distFieldObj, workers[0], workers[1])
	dj := submitAndFinish(t, ts, m, distSpec)
	if dj.Epochs != 4 {
		t.Fatalf("dist job epochs = %d, want 4", dj.Epochs)
	}
	if dj.Epoch != 4 {
		t.Fatalf("dist job committed epoch counter = %d, want 4", dj.Epoch)
	}
	if !bytes.Equal(dj.Result, local.Result) {
		t.Fatalf("distributed result diverges from local field job:\n got %s\nwant %s", dj.Result, local.Result)
	}

	afterDist := scrapeMetrics(t, ts)
	if got := afterLocal["field_epochs_total"] - before["field_epochs_total"]; got != 4 {
		t.Fatalf("local job added %v to field_epochs_total, want 4", got)
	}
	for _, name := range fieldSeries {
		localInc := afterLocal[name] - before[name]
		if distInc := afterDist[name] - afterLocal[name]; distInc != localInc {
			t.Errorf("%s: dist job added %v, local job %v", name, distInc, localInc)
		}
	}
	if got, want := afterDist["field_stranded_sensors"], afterLocal["field_stranded_sensors"]; got != want {
		t.Errorf("field_stranded_sensors: dist job set %v, local job %v", got, want)
	}
}

// TestDistSpecValidation covers the dist_field 400 surface.
func TestDistSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec string
	}{
		{"no dist block", `{"type":"dist_field"}`},
		{"no workers", `{"type":"dist_field","dist":{"field":` + distFieldObj + `,"workers":[]}}`},
		{"empty worker URL", `{"type":"dist_field","dist":{"field":` + distFieldObj + `,"workers":[""]}}`},
		{"negative timeout", `{"type":"dist_field","dist":{"field":` + distFieldObj + `,"workers":["http://x"],"epoch_timeout_ms":-1}}`},
		{"extra sub-spec", `{"type":"dist_field","dist":{"field":` + distFieldObj + `,"workers":["http://x"]},"probe":{}}`},
		{"dist block on field job", `{"type":"field","field":` + distFieldObj + `,"dist":{"field":` + distFieldObj + `,"workers":["http://x"]}}`},
	}
	for _, tc := range cases {
		var spec Spec
		if err := json.Unmarshal([]byte(tc.spec), &spec); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
}

// TestListPagination pins the ?limit=/?offset= window: stable submit
// order, filtered total, graceful out-of-range handling, 400 on junk.
func TestListPagination(t *testing.T) {
	ts, m := newTestServer(t, 1, 16)
	for i := 0; i < 5; i++ {
		if _, err := m.Submit(Spec{Type: TypeProbe, Probe: &ProbeSpec{}}); err != nil {
			t.Fatal(err)
		}
	}
	all := m.Jobs() // canonical stable order the API pages over
	if len(all) != 5 {
		t.Fatalf("store holds %d jobs", len(all))
	}

	var page struct {
		Jobs  []Job `json:"jobs"`
		Total int   `json:"total"`
	}
	getJSON(t, ts.URL+"/v1/jobs?limit=2&offset=1", &page)
	if page.Total != 5 {
		t.Fatalf("total = %d, want 5", page.Total)
	}
	if len(page.Jobs) != 2 || page.Jobs[0].ID != all[1].ID || page.Jobs[1].ID != all[2].ID {
		t.Fatalf("window [1,3): got %d jobs", len(page.Jobs))
	}

	// Offset past the end: empty page, total intact.
	getJSON(t, ts.URL+"/v1/jobs?offset=99", &page)
	if page.Total != 5 || len(page.Jobs) != 0 {
		t.Fatalf("past-the-end page: %d jobs, total %d", len(page.Jobs), page.Total)
	}

	// limit=0 is a legal count-only query.
	getJSON(t, ts.URL+"/v1/jobs?limit=0", &page)
	if page.Total != 5 || len(page.Jobs) != 0 {
		t.Fatalf("limit=0 page: %d jobs, total %d", len(page.Jobs), page.Total)
	}

	// Junk values 400.
	for _, q := range []string{"limit=x", "offset=-1", "limit=1.5"} {
		if resp := getJSON(t, ts.URL+"/v1/jobs?"+q, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestSSELastEventID pins reconnect resumption: a client that saw the
// first N events and reconnects with Last-Event-ID: N receives only
// what it missed, not a replay of the whole log.
func TestSSELastEventID(t *testing.T) {
	ts, m := newTestServer(t, 1, 8)
	j, err := m.Submit(testFieldSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, j.ID, 60*time.Second, func(x Job) bool { return x.State.Terminal() })

	// First read: full log, note the IDs.
	readStream := func(lastEventID string) (ids []int, events []string) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+j.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "id: ") {
				var id int
				fmt.Sscanf(line, "id: %d", &id)
				ids = append(ids, id)
			}
			if strings.HasPrefix(line, "event: ") {
				events = append(events, strings.TrimPrefix(line, "event: "))
			}
		}
		return ids, events
	}

	full, _ := readStream("")
	if len(full) < 3 {
		t.Fatalf("full replay delivered %d events, want >= 3", len(full))
	}
	cut := full[len(full)-2] // pretend the client died two events early

	tail, _ := readStream(fmt.Sprintf("%d", cut))
	if len(tail) != 1 || tail[0] != full[len(full)-1] {
		t.Fatalf("resume after id %d delivered ids %v, want just [%d]", cut, tail, full[len(full)-1])
	}

	// Junk cursor falls back to a full replay rather than failing.
	junk, _ := readStream("not-a-number")
	if len(junk) != len(full) {
		t.Fatalf("junk cursor delivered %d events, want full %d", len(junk), len(full))
	}
}

package alerting

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// newTestEngine builds an engine on a fresh registry with a 1s tick and
// a stranded-sensor threshold rule (for: 2s), driven by Tick directly.
func newTestEngine(t *testing.T) (*Engine, *obs.Registry, *obs.Gauge) {
	t.Helper()
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	g := reg.Gauge("field_stranded_sensors", "sensors no head can reach")
	e := New(Config{
		Registry: reg,
		Interval: time.Second,
		Clock:    func() time.Time { return t0 },
	})
	err := e.SetRules([]Rule{{
		Name:  "stranded",
		Expr:  Expr{Series: "field_stranded_sensors", Kind: ExprThreshold, Op: OpGT, Value: 0},
		ForMS: 2000,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return e, reg, g
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestEngineLifecycleOverHTTP(t *testing.T) {
	e, reg, g := newTestEngine(t)
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	e.Tick(tick(0)) // quiet
	g.Set(3)
	e.Tick(tick(1)) // trips: pending
	e.Tick(tick(2)) // dwell
	e.Tick(tick(3)) // held 2s: firing

	var alerts struct {
		Alerts []Alert `json:"alerts"`
	}
	getJSON(t, srv.URL+"/v1/alerts", &alerts)
	if len(alerts.Alerts) != 1 || alerts.Alerts[0].State != StateFiring {
		t.Fatalf("alerts = %+v, want one firing", alerts.Alerts)
	}
	if alerts.Alerts[0].FiredAt == nil {
		t.Fatal("firing alert has no fired_at")
	}
	if v := counterValue(t, reg, MetricAlertsFiring); v != 1 {
		t.Fatalf("%s = %g, want 1", MetricAlertsFiring, v)
	}

	// The history query serves the sampled gauge.
	var series struct {
		Name   string  `json:"name"`
		Points []Point `json:"points"`
	}
	getJSON(t, srv.URL+"/v1/series?name=field_stranded_sensors", &series)
	if len(series.Points) != 4 {
		t.Fatalf("series has %d points, want 4", len(series.Points))
	}
	if last := series.Points[len(series.Points)-1]; last.V != 3 {
		t.Fatalf("last sample = %g, want 3", last.V)
	}
	// since= trims the older samples.
	getJSON(t, srv.URL+"/v1/series?name=field_stranded_sensors&since="+
		tick(2).Format(time.RFC3339), &series)
	if len(series.Points) != 2 {
		t.Fatalf("since-query has %d points, want 2", len(series.Points))
	}

	// The no-name form lists the catalogue.
	var catalogue struct {
		Series   []string `json:"series"`
		Capacity int      `json:"capacity"`
	}
	getJSON(t, srv.URL+"/v1/series", &catalogue)
	found := false
	for _, n := range catalogue.Series {
		if n == "field_stranded_sensors" {
			found = true
		}
	}
	if !found || catalogue.Capacity != DefaultCapacity {
		t.Fatalf("catalogue = %+v, want field_stranded_sensors at capacity %d",
			catalogue, DefaultCapacity)
	}

	g.Set(0)
	e.Tick(tick(4)) // recovered: resolved
	getJSON(t, srv.URL+"/v1/alerts", &alerts)
	if alerts.Alerts[0].State != StateResolved {
		t.Fatalf("alert state = %s, want resolved", alerts.Alerts[0].State)
	}
	if v := counterValue(t, reg, MetricAlertsFiring); v != 0 {
		t.Fatalf("%s = %g, want 0 after resolve", MetricAlertsFiring, v)
	}
	// Firing and resolved each queued one notification.
	if got := len(e.disp.queue); got != 2 {
		t.Fatalf("dispatch queue holds %d, want firing + resolved", got)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	id   string
	name string
	data string
}

// readEvents connects to an SSE endpoint and reads n events, then hangs
// up. The alert feed never closes, so the client decides when to stop.
func readEvents(t *testing.T, url, lastEventID string, n int) []sseEvent {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for len(out) < n && sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.id != "" {
				out = append(out, cur)
				cur = sseEvent{}
			}
		}
	}
	if len(out) < n {
		t.Fatalf("read %d events, want %d (scan err %v)", len(out), n, sc.Err())
	}
	return out
}

func TestAlertEventsSSEWithReplay(t *testing.T) {
	e, _, g := newTestEngine(t)
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	e.Tick(tick(0))
	g.Set(3)
	e.Tick(tick(1)) // → pending   (event 1)
	e.Tick(tick(3)) // → firing    (event 2)
	g.Set(0)
	e.Tick(tick(4)) // → resolved  (event 3)

	events := readEvents(t, srv.URL+"/v1/alerts/events", "", 3)
	wantStates := []string{StatePending, StateFiring, StateResolved}
	for i, ev := range events {
		if ev.name != "alert" {
			t.Fatalf("event %d named %q, want alert", i, ev.name)
		}
		var payload struct {
			From string `json:"from"`
			Alert
		}
		if err := json.Unmarshal([]byte(ev.data), &payload); err != nil {
			t.Fatalf("event %d payload: %v", i, err)
		}
		if payload.State != wantStates[i] || payload.Rule != "stranded" {
			t.Fatalf("event %d = rule %s state %s, want stranded %s",
				i, payload.Rule, payload.State, wantStates[i])
		}
	}

	// A reconnect with Last-Event-ID resumes mid-stream: cursor 2 replays
	// only the resolved transition.
	resumed := readEvents(t, srv.URL+"/v1/alerts/events", "2", 1)
	if resumed[0].id != "3" {
		t.Fatalf("resumed at id %s, want 3", resumed[0].id)
	}
	var payload Alert
	if err := json.Unmarshal([]byte(resumed[0].data), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.State != StateResolved {
		t.Fatalf("resumed event state = %s, want resolved", payload.State)
	}
}

func TestRulesHTTPManagement(t *testing.T) {
	e, _, _ := newTestEngine(t)
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	// Upsert one rule as a bare object.
	one := `{"name":"hot","expr":{"series":"g","kind":"threshold","op":"gt","value":9}}`
	resp, err := http.Post(srv.URL+"/v1/alerts/rules", "application/json", strings.NewReader(one))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single upsert = %s", resp.Status)
	}

	// Upsert a batch in the rules-file shape.
	batch := `{"rules":[{"name":"a","expr":{"series":"s","kind":"absent","window_ms":5000}},
	                    {"name":"b","expr":{"series":"s","kind":"rate","op":"gt","value":1}}]}`
	resp, err = http.Post(srv.URL+"/v1/alerts/rules", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch upsert = %s", resp.Status)
	}

	var rules struct {
		Rules []Rule `json:"rules"`
	}
	getJSON(t, srv.URL+"/v1/alerts/rules", &rules)
	if len(rules.Rules) != 4 { // stranded + hot + a + b
		t.Fatalf("rules = %+v, want 4", rules.Rules)
	}

	// Invalid rules are rejected atomically.
	bad := `{"rules":[{"name":"ok","expr":{"series":"s","kind":"threshold","op":"gt"}},
	                  {"name":"","expr":{}}]}`
	resp, err = http.Post(srv.URL+"/v1/alerts/rules", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid batch = %s, want 400", resp.Status)
	}
	getJSON(t, srv.URL+"/v1/alerts/rules", &rules)
	if len(rules.Rules) != 4 {
		t.Fatalf("invalid batch changed the rule set to %d rules", len(rules.Rules))
	}

	// Delete.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/alerts/rules/hot", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %s", resp.Status)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete = %s, want 404", resp.Status)
	}
}

func TestEngineRunTicksOnWallClock(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Registry: reg, Interval: 5 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()
	deadline := time.After(2 * time.Second)
	for counterValue(t, reg, MetricSamples) < 3 {
		select {
		case <-deadline:
			t.Fatal("engine did not tick 3 times in 2s")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	<-done
}

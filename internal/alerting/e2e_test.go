// End-to-end: a real churn-heavy field job runs through the job
// service, its deaths land in the shared registry, the alerting engine
// samples them, a rule fires, and the webhook receives the notification
// exactly once. This is the whole subsystem chain the daemon wires up,
// exercised in-process (run it under -race).
package alerting_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alerting"
	"repro/internal/backoff"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/service"
)

func churnFieldSpec(epochs int) service.Spec {
	return service.Spec{
		Type:    service.TypeField,
		Workers: 2,
		Field: &service.FieldSpec{
			Seed:              19,
			Side:              300,
			Heads:             5,
			Sensors:           90,
			SensorRange:       40,
			InterferenceRange: 80,
			BatteryJoules:     200,
			EpochCycles:       2,
			Epochs:            epochs,
			FaultRate:         0.5,
			Params: &service.ParamsSpec{
				RateBps:    15,
				CycleMS:    10000,
				Seed:       7,
				UseSectors: true,
			},
		},
	}
}

func TestEndToEndAlertFromFieldJob(t *testing.T) {
	reg := obs.NewRegistry()
	field.RegisterMetrics(reg)
	service.RegisterMetrics(reg)
	alerting.RegisterMetrics(reg)

	// The webhook receiver records every delivery.
	var hits atomic.Int64
	var lastBody atomic.Pointer[alerting.Notification]
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var n alerting.Notification
		if err := json.NewDecoder(r.Body).Decode(&n); err != nil {
			t.Errorf("webhook body: %v", err)
		}
		lastBody.Store(&n)
		hits.Add(1)
	}))
	defer hook.Close()

	// Interval 1h: Run only contributes the dispatcher goroutine; the
	// sample ticks are driven by hand for determinism.
	engine := alerting.New(alerting.Config{
		Registry:    reg,
		Interval:    time.Hour,
		Sinks:       []alerting.Sink{&alerting.WebhookSink{URL: hook.URL}},
		RetryPolicy: backoff.Policy{Base: time.Millisecond, Max: 5 * time.Millisecond},
	})
	err := engine.SetRules([]alerting.Rule{{
		Name: "fault-deaths",
		Expr: alerting.Expr{
			Series:   `field_deaths_total{cause="fault"}`,
			Kind:     alerting.ExprThreshold,
			Op:       alerting.OpGT,
			Value:    0,
			WindowMS: 3_600_000, // post-hoc samples stay fresh for the test
		},
		Severity: alerting.SeverityCritical,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go engine.Run(ctx)

	// A churn-heavy field job: fault_rate 0.5 guarantees fault deaths.
	m, err := service.New(service.Config{
		SpoolDir: t.TempDir(),
		Workers:  2,
		Obs:      reg.Observer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		if err := m.Stop(sctx); err != nil {
			t.Error(err)
		}
	}()
	j, err := m.Submit(churnFieldSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, err := m.Job(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == service.StateDone {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("job ended %s: %s", cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish in 60s")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// One tick samples the registry and trips the threshold rule.
	now := time.Now().UTC()
	engine.Tick(now)
	alerts := engine.Alerts()
	if len(alerts) != 1 || alerts[0].State != alerting.StateFiring {
		t.Fatalf("alerts after job = %+v, want fault-deaths firing", alerts)
	}
	if alerts[0].Value <= 0 {
		t.Fatalf("firing value = %g, want the sampled death count > 0", alerts[0].Value)
	}

	// The webhook gets the firing notification exactly once, even across
	// further ticks of the same incident.
	hookDeadline := time.Now().Add(10 * time.Second)
	for hits.Load() == 0 {
		if time.Now().After(hookDeadline) {
			t.Fatal("webhook never received the notification")
		}
		time.Sleep(5 * time.Millisecond)
	}
	engine.Tick(now.Add(time.Second))
	engine.Tick(now.Add(2 * time.Second))
	time.Sleep(50 * time.Millisecond) // would-be duplicate deliveries drain
	if got := hits.Load(); got != 1 {
		t.Fatalf("webhook hit %d times, want exactly once", got)
	}
	n := lastBody.Load()
	if n == nil || n.Rule != "fault-deaths" || n.Type != alerting.StateFiring ||
		n.Severity != alerting.SeverityCritical || n.Value <= 0 {
		t.Fatalf("webhook payload = %+v", n)
	}

	// The history store served the same chain: the death series is
	// queryable over HTTP with the sampled points.
	api := httptest.NewServer(engine.Handler())
	defer api.Close()
	resp, err := http.Get(api.URL + "/v1/series?name=" +
		`field_deaths_total%7Bcause%3D%22fault%22%7D`)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var series struct {
		Points []alerting.Point `json:"points"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&series); err != nil {
		t.Fatal(err)
	}
	if len(series.Points) == 0 || series.Points[len(series.Points)-1].V <= 0 {
		t.Fatalf("death series = %+v, want sampled points with deaths", series.Points)
	}

	// And the subsystem's own meta-metrics recorded the delivery.
	okSeries := obs.Series(alerting.MetricNotifications, "result", "ok")
	var delivered float64
	for _, s := range reg.Snapshot() {
		if s.Name == okSeries {
			delivered = s.Value
		}
	}
	if delivered < 1 {
		t.Fatalf("%s = %g, want >= 1", okSeries, delivered)
	}
}

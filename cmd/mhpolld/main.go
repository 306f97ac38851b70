// Command mhpolld is the long-running simulation job daemon: an HTTP
// service that accepts field-simulation and experiment-sweep jobs,
// schedules them by class and priority on a bounded worker pool, streams
// epoch progress over SSE and serves the process metrics registry at
// /metrics.
//
//	mhpolld -addr :8677 -spool /var/lib/mhpolld
//
// Scheduling: jobs dispatch by class (interactive > batch > background),
// then priority, then earliest deadline, then submit order. Jobs with a
// retry policy back off exponentially between failed attempts and
// dead-letter once the budget is spent (resurrect with POST
// /v1/jobs/{id}/retry); a per-spec circuit breaker parks repeat
// offenders for -breaker-cooldown after -breaker-threshold consecutive
// failures.
//
// Crash safety: running field jobs checkpoint to the spool directory at
// every epoch boundary; restarting the daemon over the same spool
// re-queues interrupted jobs and resumes them from their checkpoints,
// producing the same final summaries an uninterrupted run would have.
// Backoff schedules survive restarts the same way.
//
// Distributed execution: every daemon also serves the dist worker API
// under /v1/worker, so any mhpolld can act as a shard worker for
// another daemon's dist_field job. Submitting a dist_field job (with
// the worker daemons' base URLs in the spec) makes this daemon the
// coordinator: it shards the field's clusters across the fleet,
// commits every epoch to its own spool, survives worker loss by
// reassigning shards to survivors, and finishes with a summary
// byte-identical to a single-process run of the same field spec.
//
// Observability: the registry is sampled into an in-memory history
// store every -sample (query it at /v1/series), declarative alert
// rules — built-in defaults overlaid by -rules and POST
// /v1/alerts/rules — evaluate on the same tick, and firing/resolved
// transitions stream at /v1/alerts/events and POST to -webhook.
// GET /v1/healthz reports uptime, queue pressure and pool occupancy.
//
// Shutdown: SIGINT/SIGTERM stops accepting requests, ends attached SSE
// streams, cancels running jobs (each stops at its next epoch boundary,
// checkpoint already on disk) and drains the pool under -drain; a second
// signal aborts.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/alerting"
	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/service"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.SetPrefix("mhpolld: ")

	var (
		addr  = flag.String("addr", "127.0.0.1:8677", "HTTP listen address")
		spool = flag.String("spool", "mhpolld-spool", "spool directory for job manifests and checkpoints")
		jobs  = flag.Int("jobs", 2, "jobs executing concurrently")
		queue = flag.Int("queue", 64, "queued-job limit before submissions get 429")
		drain = flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline")

		breakerThreshold = flag.Int("breaker-threshold", 5, "consecutive failures of one spec that trip its circuit breaker (negative disables)")
		breakerCooldown  = flag.Duration("breaker-cooldown", 30*time.Second, "how long a tripped breaker parks attempts before a half-open probe")

		sample  = flag.Duration("sample", 5*time.Second, "metric history sample and alert evaluation interval")
		history = flag.Int("history", alerting.DefaultCapacity, "metric history ring capacity (samples retained per series)")
		rules   = flag.String("rules", "", "JSON alert rules file, overlaid on the built-in defaults by name")
		webhook = flag.String("webhook", "", "URL alert notifications POST to (empty disables the webhook sink)")
	)
	flag.Parse()

	reg := obs.NewRegistry()
	cluster.RegisterMetrics(reg)
	field.RegisterMetrics(reg)
	routing.RegisterMetrics(reg)
	service.RegisterMetrics(reg)
	dist.RegisterMetrics(reg)
	alerting.RegisterMetrics(reg)
	logger := log.Default()

	m, err := service.New(service.Config{
		SpoolDir:         *spool,
		Workers:          *jobs,
		QueueDepth:       *queue,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		Obs:              reg.Observer(),
		Log:              logger,
	})
	if err != nil {
		log.Fatal(err)
	}
	m.Start()

	api := service.NewServer(m, reg, logger)
	// Every daemon is also a dist shard worker: coordinators open
	// sessions against /v1/worker, built from the same FieldSpec wire
	// format the job API speaks.
	wh := dist.NewWorkerHost(service.BuildFieldSpec)
	wh.Obs = reg.Observer()
	api.Handle("/v1/worker/", wh.Handler())

	// Fleet observability: sample the registry into the history store,
	// evaluate the alert rules, notify. Operator rules overlay the
	// defaults by name.
	var sinks []alerting.Sink
	if *webhook != "" {
		sinks = append(sinks, &alerting.WebhookSink{URL: *webhook})
	}
	engine := alerting.New(alerting.Config{
		Registry: reg,
		Interval: *sample,
		Capacity: *history,
		Sinks:    sinks,
		Log:      logger,
	})
	if err := engine.SetRules(alerting.DefaultRules()); err != nil {
		log.Fatal(err)
	}
	if *rules != "" {
		rs, err := alerting.LoadRulesFile(*rules)
		if err != nil {
			log.Fatal(err)
		}
		if err := engine.SetRules(rs); err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded %d alert rules from %s", len(rs), *rules)
	}
	alertHandler := engine.Handler()
	api.Handle("/v1/series", alertHandler)
	api.Handle("/v1/alerts", alertHandler)
	api.Handle("/v1/alerts/", alertHandler)
	engineCtx, engineStop := context.WithCancel(context.Background())
	defer engineStop()
	go engine.Run(engineCtx)

	srv := service.NewHTTPServer(*addr, api)
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (spool %s, %d workers)", *addr, *spool, *jobs)
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%s: draining (deadline %s)", sig, *drain)
	case err := <-errc:
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	go func() {
		<-sigc
		log.Print("second signal: aborting drain")
		cancel()
	}()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := m.Stop(ctx); err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("drain incomplete: %v (interrupted jobs resume on restart)", err)
		os.Exit(1)
	}
	log.Print("clean exit")
}

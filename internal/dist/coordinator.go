package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/field"
	"repro/internal/obs"
)

// Coordinator defaults.
const (
	defaultEpochTimeout      = 2 * time.Minute
	defaultHeartbeatInterval = 1 * time.Second
	defaultHeartbeatTimeout  = 5 * time.Second
	defaultRetryAttempts     = 3
)

var defaultRetry = backoff.Policy{Base: 100 * time.Millisecond, Max: 2 * time.Second}

// Config describes one distributed field run.
type Config struct {
	// Session names the run; the coordinator opens it on every worker.
	Session string
	// Spec is the opaque deployment spec both sides build from.
	Spec json.RawMessage
	// Build turns Spec into the (field, Config) pair. The coordinator
	// holds its own full runtime built from it — that runtime absorbs the
	// merges, produces the Snapshot, and seeds handoffs.
	Build Builder
	// Workers are the transport addresses of the fleet.
	Workers []string
	// Transport carries the protocol. Required.
	Transport Transport
	// Snapshot, when non-nil, resumes the run from a committed boundary
	// (a crashed coordinator restarts from its last persisted snapshot;
	// workers are re-seeded through adoption).
	Snapshot *field.Snapshot

	// EpochTimeout bounds every worker call (default 2m).
	EpochTimeout time.Duration
	// HeartbeatInterval is the ping period (default 1s);
	// HeartbeatTimeout is how long a worker may stay silent before it is
	// declared dead and its shard reassigned (default 5s).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// RetryAttempts is how many times a failing worker call is tried
	// before the worker is written off (default 3); Retry shapes the
	// delays between tries (default 100ms doubling to 2s) — the same
	// capped-exponential-plus-deterministic-jitter schedule the job
	// service retries with.
	RetryAttempts int
	Retry         backoff.Policy

	// Obs, when non-nil, receives the dist_* series and, from every
	// merged epoch, the same field_* series a local run emits.
	Obs obs.Observer
	// OnCommit, when non-nil, runs after every merged epoch with the
	// committed boundary snapshot and the epoch's report — the service
	// layer's checkpoint hook. An error aborts the run.
	OnCommit func(*field.Snapshot, *field.EpochReport) error
}

// Coordinator drives one distributed field run to completion.
type Coordinator struct {
	cfg    Config
	rt     *field.Runtime
	epochs int

	mu     sync.Mutex
	live   map[string]bool
	lastOK map[string]time.Time
	// placed[k] is the worker holding cluster k at the current committed
	// boundary; "" means no worker verified to hold it (fresh or resumed
	// start), in which case the next assignment ships an adoption
	// payload. Adopting a state a worker already has is a no-op, so
	// over-shipping is safe, never wrong. A cluster leaving a worker it
	// was placed on counts toward dist_shard_reassigns_total.
	placed map[int]string
}

// New builds a coordinator: the runtime comes up fresh from the spec or
// resumed from the snapshot.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Session == "" {
		return nil, fmt.Errorf("dist: empty session")
	}
	if cfg.Build == nil || cfg.Transport == nil {
		return nil, fmt.Errorf("dist: coordinator needs Build and Transport")
	}
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("dist: no workers")
	}
	if cfg.EpochTimeout <= 0 {
		cfg.EpochTimeout = defaultEpochTimeout
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = defaultHeartbeatInterval
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = defaultHeartbeatTimeout
	}
	if cfg.RetryAttempts < 1 {
		cfg.RetryAttempts = defaultRetryAttempts
	}
	if cfg.Retry == (backoff.Policy{}) {
		cfg.Retry = defaultRetry
	}
	f, fcfg, err := cfg.Build(cfg.Spec)
	if err != nil {
		return nil, fmt.Errorf("dist: build spec: %w", err)
	}
	var rt *field.Runtime
	if cfg.Snapshot != nil {
		rt, err = field.Resume(f, fcfg, cfg.Snapshot)
	} else {
		rt, err = field.New(f, fcfg)
	}
	if err != nil {
		return nil, err
	}
	epochs := fcfg.Epochs
	if epochs < 1 {
		epochs = 1
	}
	co := &Coordinator{
		cfg:    cfg,
		rt:     rt,
		epochs: epochs,
		live:   make(map[string]bool, len(cfg.Workers)),
		lastOK: make(map[string]time.Time, len(cfg.Workers)),
		placed: make(map[int]string),
	}
	return co, nil
}

// liveWorkers returns the live fleet, sorted for deterministic
// assignment.
func (co *Coordinator) liveWorkers() []string {
	co.mu.Lock()
	defer co.mu.Unlock()
	ws := make([]string, 0, len(co.live))
	for w, ok := range co.live {
		if ok {
			ws = append(ws, w)
		}
	}
	sort.Strings(ws)
	return ws
}

// markDead writes a worker off and updates the live gauge. Idempotent.
func (co *Coordinator) markDead(w string) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if !co.live[w] {
		return
	}
	co.live[w] = false
	if co.cfg.Obs != nil {
		n := 0
		for _, ok := range co.live {
			if ok {
				n++
			}
		}
		co.cfg.Obs.Set(MetricWorkersLive, float64(n))
	}
}

// markAlive records a successful contact.
func (co *Coordinator) markAlive(w string) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.live[w] {
		co.lastOK[w] = time.Now()
	}
}

// call runs one transport call under the epoch timeout with the
// configured retry schedule, writing the worker off on exhaustion.
func (co *Coordinator) call(ctx context.Context, w string, fn func(context.Context) error) error {
	seed := backoff.SeedString(co.cfg.Session + "|" + w)
	var err error
	for attempt := 1; attempt <= co.cfg.RetryAttempts; attempt++ {
		cctx, cancel := context.WithTimeout(ctx, co.cfg.EpochTimeout)
		err = fn(cctx)
		cancel()
		if err == nil {
			co.markAlive(w)
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if attempt < co.cfg.RetryAttempts {
			select {
			case <-time.After(co.cfg.Retry.Delay(attempt, seed)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	co.markDead(w)
	return fmt.Errorf("dist: worker %s written off after %d attempts: %w", w, co.cfg.RetryAttempts, err)
}

// heartbeat pings the live fleet until stopped, writing off workers that
// stay silent past HeartbeatTimeout. Epoch traffic also refreshes
// liveness; the heartbeat catches workers that die between barriers.
func (co *Coordinator) heartbeat(ctx context.Context, stop <-chan struct{}) {
	tick := time.NewTicker(co.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		for _, w := range co.liveWorkers() {
			pctx, cancel := context.WithTimeout(ctx, co.cfg.HeartbeatInterval)
			err := co.cfg.Transport.Ping(pctx, w)
			cancel()
			if err == nil {
				co.markAlive(w)
				continue
			}
			co.mu.Lock()
			silent := time.Since(co.lastOK[w]) > co.cfg.HeartbeatTimeout
			co.mu.Unlock()
			if silent {
				co.markDead(w)
			}
		}
	}
}

// Run opens the session on the fleet, drives the epoch barriers to the
// configured epoch count, closes the session and returns the merged
// summary — byte-identical to the single-process run's.
func (co *Coordinator) Run(ctx context.Context) (*field.Summary, error) {
	// Register phase: open the session everywhere. A worker that cannot
	// open starts the run dead; its share lands on the survivors.
	open := OpenRequest{Session: co.cfg.Session, FieldHash: co.rt.FieldHash(), Spec: co.cfg.Spec}
	now := time.Now()
	for _, w := range co.cfg.Workers {
		co.mu.Lock()
		co.live[w] = true
		co.lastOK[w] = now
		co.mu.Unlock()
	}
	var wg sync.WaitGroup
	for _, w := range co.cfg.Workers {
		wg.Add(1)
		go func(w string) {
			defer wg.Done()
			_ = co.call(ctx, w, func(cctx context.Context) error {
				return co.cfg.Transport.Open(cctx, w, open)
			})
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if co.cfg.Obs != nil {
		co.cfg.Obs.Set(MetricWorkersLive, float64(len(co.liveWorkers())))
	}
	if len(co.liveWorkers()) == 0 {
		return nil, fmt.Errorf("dist: no worker accepted session %q", co.cfg.Session)
	}

	stop := make(chan struct{})
	var hb sync.WaitGroup
	hb.Add(1)
	go func() { defer hb.Done(); co.heartbeat(ctx, stop) }()
	defer hb.Wait()
	defer close(stop)

	clusters := co.rt.ClusterIndexes()
	for co.rt.Epoch() < co.epochs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		results, err := co.barrier(ctx, co.rt.Epoch(), clusters)
		if err != nil {
			return nil, err
		}
		rep, err := co.rt.MergeEpoch(co.cfg.Obs, results)
		if err != nil {
			return nil, err
		}
		if co.cfg.Obs != nil {
			co.cfg.Obs.Observe(MetricEpochBarrierSeconds, time.Since(start).Seconds())
		}
		if co.cfg.OnCommit != nil {
			if err := co.cfg.OnCommit(co.rt.Snapshot(), rep); err != nil {
				return nil, fmt.Errorf("dist: commit epoch %d: %w", rep.Epoch, err)
			}
		}
	}

	// Best-effort teardown; the run is already committed.
	for _, w := range co.liveWorkers() {
		cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), co.cfg.EpochTimeout)
		_ = co.cfg.Transport.Close(cctx, w, co.cfg.Session)
		cancel()
	}
	return co.rt.Summary(), nil
}

// barrier collects one epoch's results from the fleet. Each pass places
// the pending clusters on their rendezvous owners among the live
// workers; lost workers' shards go to survivors — seeded by adoption
// payloads from the coordinator's last committed boundary — until every
// cluster has reported or no workers remain.
func (co *Coordinator) barrier(ctx context.Context, epoch int, clusters []int) ([]field.ClusterResult, error) {
	missing := make(map[int]bool, len(clusters))
	for _, k := range clusters {
		missing[k] = true
	}
	results := make([]field.ClusterResult, 0, len(clusters))
	for len(missing) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		live := co.liveWorkers()
		if len(live) == 0 {
			return nil, fmt.Errorf("dist: epoch %d: all workers lost with %d clusters unreported", epoch, len(missing))
		}
		pending := make([]int, 0, len(missing))
		for k := range missing {
			pending = append(pending, k)
		}

		// Build every request, adoption deltas included, before the first
		// call starts: no return below can leave a call running.
		type shardOut struct {
			worker string
			req    EpochRequest
			resp   *EpochResponse
			secs   float64
			err    error
		}
		assign := Assign(pending, live)
		outs := make([]shardOut, 0, len(assign))
		for w, shard := range assign {
			req := EpochRequest{Session: co.cfg.Session, Epoch: epoch, Clusters: shard}
			for _, k := range shard {
				if co.placed[k] == w {
					continue
				}
				d, err := co.rt.EncodeClusterDelta(k)
				if err != nil {
					return nil, err
				}
				req.AdoptDeltas = append(req.AdoptDeltas, d)
				// A cluster moving off a worker it was previously placed
				// on is a reassignment after a loss (seen mid-barrier on a
				// retry pass or by the heartbeat between epochs). Initial
				// seeding (placed == "") and coordinator-resume re-seeding
				// are not reassignments.
				if co.placed[k] != "" && co.cfg.Obs != nil {
					co.cfg.Obs.Add(MetricShardReassigns, 1)
				}
			}
			outs = append(outs, shardOut{worker: w, req: req})
		}
		var wg sync.WaitGroup
		for i := range outs {
			o := &outs[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				o.err = co.call(ctx, o.worker, func(cctx context.Context) error {
					resp, err := co.cfg.Transport.RunShard(cctx, o.worker, o.req)
					if err != nil {
						return err
					}
					o.resp = resp
					return nil
				})
				o.secs = time.Since(start).Seconds()
			}()
		}
		wg.Wait()

		// The skew is max/min seconds-per-cluster over this pass's
		// successful calls: 1 with a single call, unsmoothed otherwise
		// (the alert rule's hold period does the smoothing).
		var minPer, maxPer float64
		for i := range outs {
			o := &outs[i]
			if o.err != nil {
				// co.call already wrote the worker off; its shard stays in
				// missing for the next pass.
				continue
			}
			if len(o.resp.Results) != len(o.req.Clusters) {
				co.markDead(o.worker)
				continue
			}
			per := o.secs / float64(len(o.req.Clusters))
			if minPer == 0 || per < minPer {
				minPer = per
			}
			maxPer = max(maxPer, per)
			if co.cfg.Obs != nil {
				co.cfg.Obs.Set(obs.Series(MetricWorkerEpochSeconds, "worker", o.worker), o.secs)
			}
			for _, r := range o.resp.Results {
				k := r.Row.Cluster
				if !missing[k] {
					return nil, fmt.Errorf("dist: epoch %d: worker %s reported cluster %d it was not asked for", epoch, o.worker, k)
				}
				delete(missing, k)
				co.placed[k] = o.worker
				results = append(results, r)
			}
		}
		if minPer > 0 && co.cfg.Obs != nil {
			co.cfg.Obs.Set(MetricShardLatencySkew, maxPer/minPer)
		}
	}
	return results, nil
}

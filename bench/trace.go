package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/field"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/service"
	"repro/internal/topo"
)

// The traced run measures each layer from the benchmark's own files,
// around its calls into the program's public functions: nothing inside
// the program records spans. Per workload it runs
//
//   - one untraced round, the same as an end-to-end round, as the
//     baseline the tracing overhead is measured against;
//   - one traced round: the field workloads drive field.New/RunEpoch in
//     this process (with runField's checkpoint for the field job), the
//     dist workloads run dist.New in this process against two worker
//     daemons through a span-recording Transport;
//   - a layer replay: the workload's field rebuilt cluster by cluster
//     and, for every epoch and cluster, the refresh, churn, plan and
//     simulation calls timed one by one. The replay must reproduce the
//     program's per-cluster rows and re-plans exactly.

// span is one timed call at a layer boundary. Self is the span's
// duration minus the part of it its children cover.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Epoch    int     `json:"epoch"`
	Cluster  int     `json:"cluster"`
	Worker   string  `json:"worker,omitempty"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
	Self     float64 `json:"self_s"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// Epoch and Cluster are -1 where a span is not scoped to one.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func (t *tracer) at(tm time.Time) float64 { return tm.Sub(t.t0).Seconds() }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent int, start, end time.Time, epoch, cluster int, worker string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		Epoch: epoch, Cluster: cluster, Worker: worker,
		Start: t.at(start), End: t.at(end),
	})
	return id
}

// open starts a span whose end is set later by close; children can name
// it as their parent meanwhile.
func (t *tracer) open(name string, parent, epoch int) int {
	now := time.Now()
	return t.add(name, parent, now, now, epoch, -1, "")
}

// close ends an open span and returns its duration in seconds.
func (t *tracer) close(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = t.at(time.Now())
	return s.End - s.Start
}

// selfTimes fills every span's self time: its duration minus the union
// of its children's intervals (children of a barrier run in parallel).
func selfTimes(spans []span) {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		var iv [][2]float64
		for _, k := range kids[s.ID] {
			a, b := math.Max(spans[k].Start, s.Start), math.Min(spans[k].End, s.End)
			if b > a {
				iv = append(iv, [2]float64{a, b})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := 0.0, math.Inf(-1)
		for _, x := range iv {
			lo := math.Max(x[0], reach)
			if x[1] > lo {
				covered += x[1] - lo
			}
			reach = math.Max(reach, x[1])
		}
		s.Self = s.End - s.Start - covered
	}
}

// tracedRun is what the traced round measured, indexed by epoch.
type tracedRun struct {
	buildS     float64 // field runtime construction, spec build included
	distBuildS float64 // dist: the coordinator's spec build
	openS      float64 // dist: first Open start to last Open end
	epochWall  []float64
	epochCPU   []float64
	ckptS      []float64
	ckptBytes  []float64
	calls      []shardCall
	commits    []float64 // dist: OnCommit start per epoch, trace seconds
	summary    *field.Summary
	result     []byte
}

// shardCall is one coordinator-to-worker call.
type shardCall struct {
	epoch      int
	worker     string
	start, end float64
	bytes      int64
	failed     bool
}

// checkpointer mirrors the service's per-epoch checkpoint: the atomic
// snapshot write, then the manifest.
type checkpointer struct {
	spool *service.Spool
	job   *service.Job
	path  string
}

func newCheckpointer(dir string, spec service.Spec, epochs int) (*checkpointer, error) {
	sp, err := service.OpenSpool(dir)
	if err != nil {
		return nil, err
	}
	job := &service.Job{ID: "benchtrace", Spec: spec, State: service.StateRunning, Epochs: epochs, Created: time.Now().UTC()}
	if _, err := sp.JobDir(job.ID); err != nil {
		return nil, err
	}
	return &checkpointer{spool: sp, job: job, path: sp.SnapshotPath(job.ID)}, nil
}

// save writes one checkpoint and returns the snapshot's size in bytes.
func (c *checkpointer) save(sn *field.Snapshot) (int64, error) {
	if err := sn.WriteFile(c.path); err != nil {
		return 0, err
	}
	c.job.Epoch = sn.Epoch
	if err := c.spool.SaveManifest(c.job); err != nil {
		return 0, err
	}
	st, err := os.Stat(c.path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// traceLocal is the traced round of a field workload: the benchmark
// drives the field library itself, with the field job's checkpoint.
func traceLocal(tr *tracer, w *workload, seed int64, dir string) (*tracedRun, error) {
	run := &tracedRun{}
	root := tr.open("traced_round", 0, -1)
	defer tr.close(root)
	b := tr.open("field.build", root, -1)
	f, cfg, err := w.build(seed)
	if err != nil {
		return nil, err
	}
	rt, err := field.New(f, cfg)
	if err != nil {
		return nil, err
	}
	run.buildS = tr.close(b)
	var ck *checkpointer
	if w.kind == kindField {
		if ck, err = newCheckpointer(dir, w.jobSpec(seed, nil), w.epochs); err != nil {
			return nil, err
		}
	}
	for e := 0; e < w.epochs; e++ {
		ep := tr.open("field.epoch", root, e)
		re := tr.open("field.run_epoch", ep, e)
		c0 := selfCPU()
		if _, err := rt.RunEpoch(exp.Options{Workers: fieldWorkers}); err != nil {
			return nil, err
		}
		run.epochCPU = append(run.epochCPU, selfCPU()-c0)
		tr.close(re)
		if ck != nil {
			cs := tr.open("service.checkpoint", ep, e)
			n, err := ck.save(rt.Snapshot())
			if err != nil {
				return nil, err
			}
			run.ckptS = append(run.ckptS, tr.close(cs))
			run.ckptBytes = append(run.ckptBytes, float64(n))
		}
		run.epochWall = append(run.epochWall, tr.close(ep))
	}
	return run, run.setSummary(rt.Summary())
}

// setSummary keeps the traced round's summary and its compact JSON.
func (run *tracedRun) setSummary(s *field.Summary) error {
	raw, err := json.Marshal(s)
	run.summary, run.result = s, raw
	return err
}

// wireCounter counts the bytes of epoch calls per worker, request and
// response bodies both.
type wireCounter struct {
	inner http.RoundTripper
	mu    sync.Mutex
	n     map[string]int64
}

func (c *wireCounter) count(host string, n int64) {
	c.mu.Lock()
	c.n["http://"+host] += n
	c.mu.Unlock()
}

func (c *wireCounter) bytes(worker string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[worker]
}

func (c *wireCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.inner.RoundTrip(req)
	if err != nil || len(req.URL.Path) < 6 || req.URL.Path[len(req.URL.Path)-6:] != "/epoch" {
		return resp, err
	}
	c.count(req.URL.Host, req.ContentLength)
	resp.Body = &countingBody{ReadCloser: resp.Body, add: func(n int64) { c.count(req.URL.Host, n) }}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	add func(int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.add(int64(n))
	return n, err
}

// tracingTransport records every Open and RunShard call the coordinator
// makes over the real HTTP transport.
type tracingTransport struct {
	inner dist.Transport
	wire  *wireCounter
	tr    *tracer
	mu    sync.Mutex
	opens []shardCall
	calls []shardCall
}

func (t *tracingTransport) Ping(ctx context.Context, w string) error { return t.inner.Ping(ctx, w) }

func (t *tracingTransport) Open(ctx context.Context, w string, req dist.OpenRequest) error {
	start := time.Now()
	err := t.inner.Open(ctx, w, req)
	t.mu.Lock()
	t.opens = append(t.opens, shardCall{epoch: -1, worker: w, start: t.tr.at(start), end: t.tr.at(time.Now()), failed: err != nil})
	t.mu.Unlock()
	return err
}

func (t *tracingTransport) RunShard(ctx context.Context, w string, req dist.EpochRequest) (*dist.EpochResponse, error) {
	b0 := t.wire.bytes(w)
	start := time.Now()
	resp, err := t.inner.RunShard(ctx, w, req)
	end := time.Now()
	c := shardCall{epoch: req.Epoch, worker: w, start: t.tr.at(start), end: t.tr.at(end), bytes: t.wire.bytes(w) - b0, failed: err != nil}
	t.mu.Lock()
	t.calls = append(t.calls, c)
	t.mu.Unlock()
	return resp, err
}

func (t *tracingTransport) Close(ctx context.Context, w, session string) error {
	return t.inner.Close(ctx, w, session)
}

// traceDist is the traced round of a dist workload: the coordinator
// runs in this process against two worker daemons, checkpointing the way
// the service's dist_field runner does.
func traceDist(ctx context.Context, tr *tracer, e *env, w *workload, seed int64, dir string) (run *tracedRun, err error) {
	fl, err := e.startFleet(ctx, 2)
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := fl.stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	ck, err := newCheckpointer(dir, w.jobSpec(seed, fl.urls()), w.epochs)
	if err != nil {
		return nil, err
	}
	fs := w.fieldSpec(seed)
	raw, err := json.Marshal(&fs)
	if err != nil {
		return nil, err
	}
	base, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		return nil, fmt.Errorf("default HTTP transport is %T", http.DefaultTransport)
	}
	wire := &wireCounter{inner: base.Clone(), n: make(map[string]int64)}
	tt := &tracingTransport{inner: &dist.HTTPTransport{Client: &http.Client{Transport: wire}}, wire: wire, tr: tr}

	run = &tracedRun{}
	root := tr.open("traced_round", 0, -1)
	defer tr.close(root)
	var cpuAt, commitEnd []float64
	fb := tr.open("field.build", root, -1)
	build := func(spec json.RawMessage) (*topo.Field, field.Config, error) {
		b := tr.open("dist.build", fb, -1)
		defer func() { run.distBuildS = tr.close(b) }()
		return service.BuildFieldSpec(spec)
	}
	co, err := dist.New(dist.Config{
		Session:   fmt.Sprintf("bench-trace-%d", os.Getpid()),
		Spec:      raw,
		Build:     build,
		Workers:   fl.urls(),
		Transport: tt,
		OnCommit: func(sn *field.Snapshot, rep *field.EpochReport) error {
			start := time.Now()
			n, err := ck.save(sn)
			if err != nil {
				return err
			}
			end := time.Now()
			run.commits = append(run.commits, tr.at(start))
			run.ckptS = append(run.ckptS, end.Sub(start).Seconds())
			run.ckptBytes = append(run.ckptBytes, float64(n))
			commitEnd = append(commitEnd, tr.at(end))
			cpu, err := fl.cpuSeconds()
			if err != nil {
				return err
			}
			cpuAt = append(cpuAt, cpu+selfCPU())
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	run.buildS = tr.close(fb)
	cpu0, err := fl.cpuSeconds()
	if err != nil {
		return nil, err
	}
	cpu0 += selfCPU()
	runStart := tr.at(time.Now())
	sum, err := co.Run(ctx)
	if err != nil {
		return nil, err
	}
	for e := range commitEnd {
		prevT, prevC := runStart, cpu0
		if e > 0 {
			prevT, prevC = commitEnd[e-1], cpuAt[e-1]
		}
		run.epochWall = append(run.epochWall, commitEnd[e]-prevT)
		run.epochCPU = append(run.epochCPU, cpuAt[e]-prevC)
	}
	run.calls = tt.calls
	if len(tt.opens) > 0 {
		first, last := tt.opens[0].start, tt.opens[0].end
		for _, o := range tt.opens {
			first, last = math.Min(first, o.start), math.Max(last, o.end)
		}
		run.openS = last - first
	}
	distSpans(tr, root, tt, run, runStart, commitEnd)
	return run, run.setSummary(sum)
}

// distSpans turns the recorded calls into the dist span tree: per epoch
// a field.epoch span holding the barrier (parent of the shard calls),
// the merge gap after the last call, and the checkpoint.
func distSpans(tr *tracer, root int, tt *tracingTransport, run *tracedRun, runStart float64, commitEnd []float64) {
	at := func(s float64) time.Time { return tr.t0.Add(time.Duration(s * float64(time.Second))) }
	for _, o := range tt.opens {
		tr.add("dist.open", root, at(o.start), at(o.end), -1, -1, o.worker)
	}
	byEpoch := make(map[int][]shardCall)
	for _, c := range tt.calls {
		byEpoch[c.epoch] = append(byEpoch[c.epoch], c)
	}
	for e, end := range commitEnd {
		start := runStart
		if e > 0 {
			start = commitEnd[e-1]
		}
		ep := tr.add("field.epoch", root, at(start), at(end), e, -1, "")
		if calls := byEpoch[e]; len(calls) > 0 {
			lo, hi := calls[0].start, calls[0].end
			for _, c := range calls {
				lo, hi = math.Min(lo, c.start), math.Max(hi, c.end)
			}
			bar := tr.add("dist.barrier", ep, at(lo), at(hi), e, -1, "")
			for _, c := range calls {
				tr.add("dist.run_shard", bar, at(c.start), at(c.end), e, -1, c.worker)
			}
			tr.add("dist.merge", ep, at(hi), at(run.commits[e]), e, -1, "")
		}
		tr.add("service.checkpoint", ep, at(run.commits[e]), at(end), e, -1, "")
	}
}

// replayRun is the layer replay's per-epoch tally.
type replayRun struct {
	plan, sim, churn, refresh []float64 // seconds per epoch
	links                     []float64 // materialized links refreshed
	solves, augments          []float64 // flow work on plan-cache misses
	hits, misses              []float64
	oracleTests               []float64
}

// total is the replay's summed layer time for epoch e.
func (rp *replayRun) total(e int) float64 {
	return rp.plan[e] + rp.sim[e] + rp.churn[e] + rp.refresh[e]
}

// replay rebuilds w's field cluster by cluster and re-runs the epochs
// the program ran, timing each layer call. Deaths come from the
// program's own summary; runner seeds and shadowing tables are derived
// the way the field runtime derives them. Every cluster row and every
// epoch's re-plan count must equal the program's.
func replay(tr *tracer, w *workload, seed int64, prog *field.Summary) (*replayRun, error) {
	f, cfg, err := w.build(seed)
	if err != nil {
		return nil, err
	}
	root := tr.open("replay", 0, -1)
	defer tr.close(root)
	clusters := make([]*topo.Cluster, len(f.Heads))
	caches := make([]*routing.PlanCache, len(f.Heads))
	scratch := make([]*cluster.RunnerScratch, len(f.Heads))
	for k := range f.Heads {
		c, err := f.BuildCluster(k, cfg.Topo)
		if err != nil {
			return nil, err
		}
		if c.Sensors() > 0 {
			clusters[k], caches[k], scratch[k] = c, &routing.PlanCache{}, &cluster.RunnerScratch{}
		}
	}
	ld, _ := cfg.Topo.Prop.(*radio.LogDistance)
	shadowEvery := cfg.Churn.ShadowEvery
	shadow := ld != nil && cfg.Churn.ShadowSigmaDB > 0 && shadowEvery > 0
	churnSeed := cfg.Churn.Seed
	if churnSeed == 0 {
		churnSeed = cfg.Params.Seed
	}
	cycles := max(cfg.EpochCycles, 1)

	type key struct{ epoch, cluster int }
	battery := make(map[key][]int)
	fault := make(map[key][]int)
	for _, d := range prog.Deaths {
		k := key{d.Epoch, d.Cluster}
		if d.Cause == "battery" {
			battery[k] = append(battery[k], d.Sensor)
		} else {
			fault[k] = append(fault[k], d.Sensor)
		}
	}

	n := prog.Epochs
	rp := &replayRun{}
	for _, s := range []*[]float64{&rp.plan, &rp.sim, &rp.churn, &rp.refresh, &rp.links, &rp.solves, &rp.augments, &rp.hits, &rp.misses, &rp.oracleTests} {
		*s = make([]float64, n)
	}
	revs := make([]uint64, len(clusters))
	for e := 0; e < n; e++ {
		ep := tr.open("replay.epoch", root, e)
		rep := &prog.Reports[e]
		row := 0
		for k, c := range clusters {
			if c == nil {
				continue
			}
			p := cfg.Params
			if e > 0 {
				p.Seed = int64(hashMix(uint64(cfg.Params.Seed), uint64(e), uint64(k)+saltEpochSeed))
			}
			misses := caches[k].Misses
			t0 := time.Now()
			r, err := cluster.NewRunnerScratch(c, p, caches[k], scratch[k])
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			s, err := r.Run(cycles)
			if err != nil {
				return nil, err
			}
			t2 := time.Now()
			tr.add("routing.plan", ep, t0, t1, e, k, "")
			tr.add("cluster.simulate", ep, t1, t2, e, k, "")
			rp.plan[e] += t1.Sub(t0).Seconds()
			rp.sim[e] += t2.Sub(t1).Seconds()
			if caches[k].Misses == misses {
				rp.hits[e]++
			} else {
				rp.misses[e]++
				rp.solves[e] += float64(r.Plan.Solves)
				rp.augments[e] += float64(r.Plan.AugmentingPaths)
			}
			rp.oracleTests[e] += float64(s.OracleTests)
			if row >= len(rep.Clusters) || rep.Clusters[row].Cluster != k {
				return nil, fmt.Errorf("replay: epoch %d: program has no row for cluster %d", e, k)
			}
			if got := rep.Clusters[row]; got.Offered != s.Offered || got.Delivered != s.Delivered || got.Retries != s.Retries {
				return nil, fmt.Errorf("replay: epoch %d cluster %d: replay offered/delivered/retries %d/%d/%d, program %d/%d/%d",
					e, k, s.Offered, s.Delivered, s.Retries, got.Offered, got.Delivered, got.Retries)
			}
			row++
			revs[k] = c.ConnectivityRev()
		}
		// The epoch boundary, in the runtime's order: battery deaths
		// across clusters, then injected faults, then the shadow shift.
		for _, victims := range []map[key][]int{battery, fault} {
			for k, c := range clusters {
				if v := victims[key{e, k}]; c != nil && len(v) > 0 {
					t0 := time.Now()
					c.MarkFailedBatch(v)
					t1 := time.Now()
					tr.add("topo.churn", ep, t0, t1, e, k, "")
					rp.churn[e] += t1.Sub(t0).Seconds()
				}
			}
		}
		if shadow && (e+1)%shadowEvery == 0 {
			rev := (e + 1) / shadowEvery
			ld.ShadowDB = radio.HashShadow(int64(hashMix(uint64(churnSeed), uint64(rev), saltShadow)), cfg.Churn.ShadowSigmaDB)
			for k, c := range clusters {
				if c == nil {
					continue
				}
				before := c.Med.Stats().Refreshed
				t0 := time.Now()
				c.RefreshConnectivity()
				t1 := time.Now()
				tr.add("topo.refresh", ep, t0, t1, e, k, "")
				rp.refresh[e] += t1.Sub(t0).Seconds()
				rp.links[e] += float64(c.Med.Stats().Refreshed - before)
			}
		}
		replans := 0
		for k, c := range clusters {
			if c != nil && c.ConnectivityRev() != revs[k] {
				replans++
			}
		}
		if replans != rep.Replans {
			return nil, fmt.Errorf("replay: epoch %d: %d clusters re-plan, program reports %d", e, replans, rep.Replans)
		}
		tr.close(ep)
	}
	return rp, nil
}

// replayFidelity is how far the replay's summed layer time may sit from
// the program's own epoch CPU before the replay no longer stands for the
// program.
const replayFidelity = 0.25

// layerMetrics derives the per-layer metrics of one workload from its
// untraced round, traced round and replay. Per-epoch values cover the
// timed epochs (1 and later): times are medians over epochs, counts are
// means. A layer that does not run on the workload reports 0.
func layerMetrics(w *workload, base *round, run *tracedRun, rp *replayRun) map[string]float64 {
	perEpoch := func(f func(e int) float64) []float64 {
		var out []float64
		for e := 1; e < len(rp.plan); e++ {
			out = append(out, f(e))
		}
		return out
	}
	zero := func(v float64) float64 {
		if math.IsNaN(v) {
			return 0
		}
		return v
	}
	med := func(xs []float64) float64 { return zero(median(xs)) }
	avg := func(xs []float64) float64 { return zero(mean(xs)) }
	share := func(part []float64) float64 {
		return med(perEpoch(func(e int) float64 { return part[e] / rp.total(e) }))
	}
	hits, misses := 0.0, 0.0
	for e := 1; e < len(rp.hits); e++ {
		hits += rp.hits[e]
		misses += rp.misses[e]
	}
	tracedP50 := med(timed(run.epochWall))
	m := map[string]float64{
		"service.submit_ms":         base.SubmitMS,
		"service.queue_wait_ms":     base.QueueWaitMS,
		"service.checkpoint_ms":     1000 * med(timed(run.ckptS)),
		"service.checkpoint_bytes":  med(timed(run.ckptBytes)),
		"field.build_s":             run.buildS,
		"field.epoch_ms":            1000 * tracedP50,
		"field.epoch_cpu_ms":        1000 * med(timed(run.epochCPU)),
		"topo.refresh_ms":           1000 * med(timed(rp.refresh)),
		"radio.links_refreshed":     avg(timed(rp.links)),
		"topo.churn_ms":             1000 * med(timed(rp.churn)),
		"routing.plan_ms":           1000 * med(timed(rp.plan)),
		"routing.plan_share":        share(rp.plan),
		"routing.solves":            avg(timed(rp.solves)),
		"routing.augmenting_paths":  avg(timed(rp.augments)),
		"routing.cache_hit_ratio":   zero(hits / (hits + misses)),
		"cluster.simulate_ms":       1000 * med(timed(rp.sim)),
		"cluster.simulate_share":    share(rp.sim),
		"cluster.delivered_ratio":   run.summary.DeliveredFraction(),
		"core.oracle_tests":         avg(timed(rp.oracleTests)),
		"trace.overhead_s":          tracedP50 - median(base.EpochS),
		"dist.build_s":              run.distBuildS,
		"dist.open_s":               run.openS,
		"dist.run_shard_ms":         0,
		"dist.barrier_ms":           0,
		"dist.barrier_skew":         0,
		"dist.merge_ms":             0,
		"dist.wire_bytes_per_epoch": 0,
		"dist.wire_overhead_ms":     0,
		"dist.calls_retried":        0,
		"dist.calls_failed":         0,
	}
	if w.kind != kindDist {
		return m
	}
	byEpoch := make(map[int][]shardCall)
	seen := make(map[string]int)
	for _, c := range run.calls {
		byEpoch[c.epoch] = append(byEpoch[c.epoch], c)
		key := fmt.Sprintf("%d|%s", c.epoch, c.worker)
		if seen[key]++; seen[key] > 1 {
			m["dist.calls_retried"]++
		}
		if c.failed {
			m["dist.calls_failed"]++
		}
	}
	var callMS, barrier, skew, merge, wire, overhead []float64
	for e := 1; e < len(run.commits); e++ {
		calls := byEpoch[e]
		if len(calls) == 0 {
			continue
		}
		var sum, longest, lo, hi float64
		var bytes int64
		lo, hi = calls[0].start, calls[0].end
		for _, c := range calls {
			d := c.end - c.start
			sum += d
			longest = math.Max(longest, d)
			lo, hi = math.Min(lo, c.start), math.Max(hi, c.end)
			bytes += c.bytes
		}
		callMS = append(callMS, 1000*sum/float64(len(calls)))
		barrier = append(barrier, 1000*(hi-lo))
		skew = append(skew, longest/(sum/float64(len(calls))))
		merge = append(merge, 1000*(run.commits[e]-hi))
		wire = append(wire, float64(bytes))
		overhead = append(overhead, 1000*(sum-rp.total(e)))
	}
	m["dist.run_shard_ms"] = med(callMS)
	m["dist.barrier_ms"] = med(barrier)
	m["dist.barrier_skew"] = med(skew)
	m["dist.merge_ms"] = med(merge)
	m["dist.wire_bytes_per_epoch"] = avg(wire)
	m["dist.wire_overhead_ms"] = med(overhead)
	return m
}

// timed drops epoch 0 (the cold epoch setup_s covers) from a
// per-epoch series.
func timed(xs []float64) []float64 {
	if len(xs) < 2 {
		return nil
	}
	return xs[1:]
}

// traceWorkload runs the untraced baseline round, the traced round and
// the replay for one workload, and checks that they agree.
func traceWorkload(ctx context.Context, e *env, w *workload, seed int64, tr *tracer) (*workloadRun, map[string]float64) {
	wr := &workloadRun{w: w}
	base, err := runRound(ctx, e, w, seed)
	if err != nil {
		wr.err = err
		wr.add("untraced-round", false, err.Error())
		return wr, nil
	}
	wr.rounds = []*round{base}
	for _, f := range base.Failures {
		wr.add("untraced-round", false, f)
	}
	dir, err := os.MkdirTemp(e.dir, "trace-")
	if err != nil {
		wr.add("traced-round", false, err.Error())
		return wr, nil
	}
	defer os.RemoveAll(dir)
	var run *tracedRun
	if w.kind == kindDist {
		run, err = traceDist(ctx, tr, e, w, seed, dir)
	} else {
		run, err = traceLocal(tr, w, seed, dir)
	}
	if err != nil {
		wr.add("traced-round", false, err.Error())
		return wr, nil
	}
	wr.add("traced-equals-untraced", bytes.Equal(run.result, base.result), base.SHA256)
	rp, err := replay(tr, w, seed, run.summary)
	if err != nil {
		wr.add("replay-matches-program", false, err.Error())
		return wr, nil
	}
	wr.add("replay-matches-program", true, "rows and re-plans equal")
	m := layerMetrics(w, base, run, rp)
	if w.kind != kindDist {
		var sums []float64
		for e := 1; e < len(rp.plan); e++ {
			sums = append(sums, rp.total(e))
		}
		got, want := median(sums), median(timed(run.epochCPU))
		dev := math.Abs(got-want) / want
		wr.add("replay-fidelity", dev <= replayFidelity, fmt.Sprintf(
			"replay %.1f ms/epoch vs program CPU %.1f ms/epoch (%.0f%% apart, limit %.0f%%)",
			1000*got, 1000*want, 100*dev, 100*replayFidelity))
	}
	return wr, m
}

// writeTrace writes every span of the run, with self times, as JSON.
func writeTrace(path string, seed int64, tracers []*tracer) error {
	var all []span
	for _, t := range tracers {
		selfTimes(t.spans)
		all = append(all, t.spans...)
	}
	data, err := json.Marshal(map[string]any{"seed": seed, "spans": all})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

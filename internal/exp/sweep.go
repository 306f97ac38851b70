package exp

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// This file is the parallel sweep runner: every figure and ablation is a
// grid of independent cells (a cluster size, a rate, a seed block, ...),
// and the nested loops that used to walk the grid sequentially now fan
// the cells out over a bounded worker pool. Cells are independent by
// construction — each builds its own deployment and its own tested
// oracles — and the read-only radio.Medium fast path makes sharing a
// deployment across workers safe where a sweep wants it.

// Options configures a sweep and is threaded explicitly through every
// figure and ablation entry point. The zero value is ready to use: all
// CPUs, background context, no metrics.
type Options struct {
	// Workers bounds the worker pool; 0 means runtime.NumCPU() and 1
	// runs the sweep inline with no goroutines.
	Workers int
	// Ctx, when non-nil, cancels the sweep between cells: no new cell
	// starts after Ctx is done and Sweep returns Ctx.Err().
	Ctx context.Context
	// Obs, when non-nil, receives per-cell wall-clock samples
	// (MetricCellSeconds) and a completed-cell counter (MetricCellsTotal),
	// and is attached to the runtimes each cell builds, so cycle-level
	// cluster and S-MAC series accumulate across the whole sweep.
	Obs obs.Observer
}

// Metric series the sweep runner emits when Options.Obs is set.
const (
	// MetricCellSeconds is a histogram of per-cell wall-clock seconds.
	MetricCellSeconds = "exp_cell_seconds"
	// MetricCellsTotal counts completed sweep cells.
	MetricCellsTotal = "exp_cells_total"
)

// WorkerCount resolves the pool size: Options.Workers wins, then NumCPU.
// Other runtimes that bound their own pools by Options (e.g. the field
// runtime's cluster pool) resolve through this so every consumer agrees.
// (The unsynchronized package-level Workers shim that used to be consulted
// between the two was deprecated for one release and is gone; pass
// Options.Workers.)
func (o Options) WorkerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// Context resolves the cancellation context, defaulting to Background.
func (o Options) Context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// Sweep runs fn(0..n-1) on a bounded worker pool and returns the results
// in index order, so parallel sweeps render byte-identical tables to the
// sequential loops they replace.
//
// On failure the first error by cell index is returned (lower-indexed
// cells win, matching the error a sequential loop would surface);
// remaining unstarted cells are abandoned. When o.Ctx is canceled no new
// cell starts and the context's error is returned.
func Sweep[T any](o Options, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	ctx := o.Context()
	workers := o.WorkerCount()
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	run := func(i int) error {
		var start time.Time
		if o.Obs != nil {
			start = time.Now()
		}
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		if o.Obs != nil {
			o.Obs.Observe(MetricCellSeconds, time.Since(start).Seconds())
			o.Obs.Add(MetricCellsTotal, 1)
		}
		return nil
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := run(i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() || ctx.Err() != nil {
					return
				}
				if err := run(i); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Package runner is the shared orchestration layer for every multi-run
// workload in this repository: a bounded worker pool with deterministic job
// dispatch, context cancellation, per-job error capture and optional
// progress reporting, plus a dense grid result store and a generic sweep
// primitive built on top of it.
//
// The experiments package, the cmd/ tools and the top-level benchmarks all
// schedule simulations through this package instead of hand-rolling
// goroutine fan-out. Because every job writes only its own pre-allocated
// slot, results are deterministic for any worker count: the same seeds
// produce the same sim.Result values whether a batch runs on one worker or
// sixty-four.
package runner

import (
	"context"
	"math"
	"runtime"
	"sync"
)

// Progress reports one completed job to a Runner's OnProgress callback.
type Progress struct {
	// Done is the number of jobs completed so far, including this one.
	Done int
	// Total is the batch size.
	Total int
	// Index identifies the job that just finished.
	Index int
	// Err is the job's error, if it failed.
	Err error
}

// Runner executes batches of independent jobs over a bounded worker pool.
// The zero value (and a nil *Runner) is ready to use and sizes the pool to
// GOMAXPROCS. A Runner carries no per-batch state and may be reused and
// shared across concurrent batches.
type Runner struct {
	// Workers bounds the concurrency; 0 or negative means GOMAXPROCS.
	Workers int
	// OnProgress, when non-nil, is called after every job completes.
	// Calls are serialized, but jobs finish — and therefore report — in
	// arbitrary order; Progress.Done is monotonic regardless.
	OnProgress func(Progress)
}

func (r *Runner) workers() int {
	if r == nil || r.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Workers
}

// Do runs fn(ctx, i) for every i in [0, n) across the worker pool and waits
// for completion. Jobs are dispatched strictly in index order, so a
// single-worker runner executes the batch sequentially in order.
//
// Every job runs to completion even when a sibling fails; after the batch
// drains, the first error by job index (not by completion time) is
// returned, so the reported error is deterministic across worker counts.
// When ctx is cancelled, dispatch stops, in-flight jobs finish, and
// ctx.Err() is returned.
func (r *Runner) Do(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := r.workers()
	if workers > n {
		workers = n
	}

	jobs := make(chan int) // unbuffered, so dispatch order is pickup order
	errs := make([]error, n)
	var (
		mu   sync.Mutex
		done int
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				err := fn(ctx, i)
				mu.Lock()
				errs[i] = err
				done++
				if r != nil && r.OnProgress != nil {
					r.OnProgress(Progress{Done: done, Total: n, Index: i, Err: err})
				}
				mu.Unlock()
			}
		}()
	}

dispatch:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Sweep runs fn once per point over r's worker pool and returns the results
// in point order — the primitive behind multi-seed runs, capacitance
// sweeps, DT sweeps and any other parameter study. A nil runner uses the
// default pool. On error the results gathered so far are discarded and the
// first failing point's error (by index) is returned.
func Sweep[P, R any](ctx context.Context, r *Runner, points []P, fn func(ctx context.Context, p P) (R, error)) ([]R, error) {
	out := make([]R, len(points))
	err := r.Do(ctx, len(points), func(ctx context.Context, i int) error {
		res, err := fn(ctx, points[i])
		if err != nil {
			return err
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Slots returns the worker-pool size the runner would use for an unbounded
// batch — the partition width for callers that pre-chunk work into one
// contiguous piece per worker (scenario.PlanBatches). A nil runner reports
// the default pool size.
func (r *Runner) Slots() int { return r.workers() }

// Seeds returns the n deterministic sweep seeds 1..n (seed 0 means "default"
// throughout the repository, so sweeps start at 1).
func Seeds(n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(i + 1)
	}
	return s
}

// Linspace returns n evenly spaced values from lo to hi inclusive — the
// usual axis for capacitance and threshold sweeps. n <= 0 is an empty
// axis.
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	v := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range v {
		v[i] = lo + float64(i)*step
	}
	v[n-1] = hi
	return v
}

// Logspace returns n logarithmically spaced values from lo to hi inclusive
// (both must be positive) — the usual axis for DT and buffer-size sweeps
// spanning decades. n <= 0 is an empty axis.
func Logspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	v := make([]float64, n)
	ratio := hi / lo
	for i := range v {
		v[i] = lo * math.Pow(ratio, float64(i)/float64(n-1))
	}
	v[n-1] = hi
	return v
}

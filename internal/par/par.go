// Package par provides the bounded worker pool behind the execution
// core: chase trigger discovery, EGD/NC body matching and eval rounds
// all fan their independent work units out through a Pool.
//
// A Pool is a width, not a set of live goroutines: Run spawns up to
// Width workers for the duration of one batch of tasks and joins them
// before returning, so there is nothing to shut down and a Pool value
// can be shared freely (it is immutable). Width 1 runs every task on
// the caller goroutine and starts none; the engines run the same code
// at every width. engine.Prepared owns the pool configuration for the
// assessment pipeline; the chase and eval states each hold the Pool
// they were configured with.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded fan-out executor. The zero value is a pool of
// width 1; use New to resolve a requested parallelism degree.
type Pool struct {
	width int
}

// New returns a pool of the requested width. n <= 0 resolves to
// runtime.GOMAXPROCS(0) — the default parallelism of the execution
// core; n >= 1 bounds concurrent workers at n.
func New(n int) Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return Pool{width: n}
}

// Width returns the maximum number of concurrent workers.
func (p Pool) Width() int {
	if p.width <= 0 {
		return 1
	}
	return p.width
}

// Run executes tasks 0..n-1 by calling fn(task) from at most Width
// worker goroutines and blocks until every task has returned. Task
// order across workers is unspecified; callers that need determinism
// collect per-task results and merge them in task order afterwards.
// A pool of width 1 (or n == 1) runs every task inline, in order, on
// the caller goroutine.
func (p Pool) Run(n int, fn func(task int)) {
	if n <= 0 {
		return
	}
	if p.Width() == 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	workers := p.Width()
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= n {
					return
				}
				fn(t)
			}
		}()
	}
	wg.Wait()
}

// Map runs fn for tasks 0..n-1 on the pool and collects the per-task
// results in task order; it is the shared fan-out scaffold of the
// parallel engines (stage against a frozen view on workers, merge
// results in deterministic task order on the caller). Cancellation is
// checked once per task before it starts — the per-worker-batch
// cancellation bound — and the first error in task order wins (nil
// results are returned alongside it so callers always merge either
// everything or nothing).
func Map[T any](ctx context.Context, p Pool, n int, fn func(task int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	p.Run(n, func(t int) {
		if err := ctx.Err(); err != nil {
			errs[t] = err
			return
		}
		out[t], errs[t] = fn(t)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Chunks splits n items into contiguous [lo, hi) ranges of roughly
// equal size, at most parts of them, in order. It is the shared
// work-partitioning helper: chunk boundaries depend only on n and
// parts, so a fixed parallelism degree always yields the same units
// (and therefore the same deterministic merge order).
func Chunks(n, parts int) [][2]int {
	if n <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	for i := 0; i < parts; i++ {
		lo, hi := i*n/parts, (i+1)*n/parts
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

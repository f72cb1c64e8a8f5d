package ned

import (
	"context"
	"runtime"
)

// Executor is a width for parallel loops: Do runs a loop's indices on up
// to that many goroutines (ParallelForCtx). It holds no goroutines
// between calls, so calls nest and overlap freely. FanKNN takes one for
// its per-shard fan-out over indexes that are not scans.
type Executor struct {
	max int
}

// NewExecutor returns an executor of the given width; <= 0 means
// GOMAXPROCS.
func NewExecutor(workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Executor{max: workers}
}

// Workers reports the executor's width.
func (e *Executor) Workers() int { return e.max }

// Do runs fn(i) for i in [0, n) on at most workers goroutines (<= 0 or
// above the executor's width means its width): ParallelForCtx, whose
// cancellation contract it keeps.
func (e *Executor) Do(ctx context.Context, n, workers int, fn func(i int)) error {
	if workers <= 0 || workers > e.max {
		workers = e.max
	}
	return ParallelForCtx(ctx, n, workers, fn)
}

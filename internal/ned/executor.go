package ned

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Executor is a bounded pool of reusable worker goroutines shared by
// everything a Corpus runs in parallel: a query's sweepers (FanKNN),
// per-shard range queries (FanRange) and BatchKNN's per-signature
// fan-out. It keeps workers warm across calls and bounds total
// concurrency at one configured width no matter how many calls overlap.
//
// Scheduling never blocks and never deadlocks on nested use: a task is
// handed to an idle pooled worker if one is waiting, run on a freshly
// spawned worker if the pool is below capacity, and otherwise executed
// inline by the submitter — which is exactly the backpressure a
// saturated pool wants, and makes work issued from inside a worker
// (a BatchKNN query's sweepers) degrade to sequential execution instead
// of deadlocking.
type Executor struct {
	max   int
	work  chan func()   // unbuffered: handoff to a worker mid-wait
	slots chan struct{} // live-worker tokens, capacity max
}

// executorIdle is how long a pooled worker waits for its next task
// before exiting. Workers respawn on demand, so an idle executor decays
// to zero goroutines instead of pinning a pool for the corpus lifetime
// (a Corpus has no Close).
const executorIdle = 100 * time.Millisecond

// NewExecutor returns an executor of the given width; <= 0 means
// GOMAXPROCS.
func NewExecutor(workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Executor{
		max:   workers,
		work:  make(chan func()),
		slots: make(chan struct{}, workers),
	}
}

// Workers reports the executor's width.
func (e *Executor) Workers() int { return e.max }

// Go schedules fn: idle pooled worker, new worker below capacity, or
// inline on the caller. It never blocks.
func (e *Executor) Go(fn func()) {
	select {
	case e.work <- fn:
		return
	default:
	}
	select {
	case e.work <- fn:
	case e.slots <- struct{}{}:
		go e.worker(fn)
	default:
		fn()
	}
}

// worker runs fn, then serves handed-off tasks until it has been idle
// for executorIdle, releasing its slot on exit.
func (e *Executor) worker(fn func()) {
	timer := time.NewTimer(executorIdle)
	defer timer.Stop()
	for {
		fn()
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(executorIdle)
		select {
		case fn = <-e.work:
		case <-timer.C:
			// Handoff on e.work is synchronous (the channel is unbuffered
			// and senders never block on it), so once this case is taken no
			// task can have been committed to this worker.
			<-e.slots
			return
		}
	}
}

// Do runs fn(i) for i in [0, n) across at most `workers` concurrent
// participants drawn from the pool (workers <= 0 means the executor
// width), work-stealing indices off a shared counter. It stops handing
// out new indices as soon as ctx is canceled and returns ctx.Err();
// indices already claimed still finish (fn must stay safe to run after
// cancellation), but fn bodies that check ctx themselves — every index
// backend does — abort promptly too.
func (e *Executor) Do(ctx context.Context, n, workers int, fn func(i int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	if workers <= 0 || workers > e.max {
		workers = e.max
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		e.Go(func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		})
	}
	wg.Wait()
	return ctx.Err()
}

// sweepers is the sweep runner over the pool: up to n participants,
// each running sweep once, and a return once all have finished. A
// participant the saturated pool cannot take runs inline on the caller,
// so a query issued from a busy pool sweeps without oversubscribing it.
func (e *Executor) sweepers(ctx context.Context) func(n int, sweep func()) {
	return func(n int, sweep func()) {
		_ = e.Do(ctx, n, n, func(int) { sweep() })
	}
}

package ned

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestExecutorDoRunsAll: every index in [0, n) runs exactly once, under
// concurrent Do calls sharing one pool.
func TestExecutorDoRunsAll(t *testing.T) {
	e := NewExecutor(4)
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			const n = 500
			hits := make([]atomic.Int32, n)
			if err := e.Do(context.Background(), n, 0, func(i int) {
				hits[i].Add(1)
			}); err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Errorf("index %d ran %d times", i, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestExecutorDoCancel: cancellation mid-batch stops handing out work
// and surfaces the context error.
func TestExecutorDoCancel(t *testing.T) {
	e := NewExecutor(2)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := e.Do(ctx, 10_000, 0, func(i int) {
		if ran.Add(1) == 5 {
			cancel()
		}
		time.Sleep(100 * time.Microsecond)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do after cancel: %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 10_000 {
		t.Errorf("cancellation did not stop the batch (%d ran)", n)
	}
}

// TestExecutorNestedDo: fan-outs issued from inside pool workers (the
// BatchKNN -> sweepers shape) must complete without deadlock — a
// saturated pool degrades to inline execution.
func TestExecutorNestedDo(t *testing.T) {
	e := NewExecutor(3)
	var total atomic.Int32
	err := e.Do(context.Background(), 20, 0, func(i int) {
		if err := e.Do(context.Background(), 8, 0, func(j int) {
			total.Add(1)
		}); err != nil {
			t.Errorf("nested Do: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := total.Load(); got != 20*8 {
		t.Fatalf("nested Do ran %d tasks, want %d", got, 20*8)
	}
}

// TestExecutorWorkerReuse: sequential batches reuse pooled workers
// while they are warm instead of spawning a fresh pool per call. The
// executor's whole point is that goroutine count stays bounded by its
// width; this asserts the observable half — the slot pool never exceeds
// the cap — by hammering it from many submitters.
func TestExecutorWorkerReuse(t *testing.T) {
	e := NewExecutor(2)
	for round := 0; round < 50; round++ {
		if err := e.Do(context.Background(), 10, 0, func(i int) {}); err != nil {
			t.Fatal(err)
		}
		if live := len(e.slots); live > 2 {
			t.Fatalf("round %d: %d live workers, cap 2", round, live)
		}
	}
}

// TestExecutorPreCanceled: a dead context runs nothing.
func TestExecutorPreCanceled(t *testing.T) {
	e := NewExecutor(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := e.Do(ctx, 5, 0, func(i int) { ran = true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran {
		t.Error("pre-canceled Do ran work")
	}
}

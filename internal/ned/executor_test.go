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
// concurrent Do calls on one executor.
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

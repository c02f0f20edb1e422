package fleet

// Scheduler-level chaos: all-dead pools, the retry policy's attempt cap
// and pacing, driven through the same fakeRunner the transport-failure
// suite uses.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/gaugenn/gaugenn/internal/errs"
	"github.com/gaugenn/gaugenn/internal/retry"
	"github.com/gaugenn/gaugenn/internal/testutil"
)

// TestBreakerStrandedUnitsSurfaceTyped keeps the name it had when a
// circuit breaker could retire a rig and leave units stranded. With the
// breaker gone no unit can be stranded: on an all-dead pool every cell
// reaches both OnUnit and the aggregator, and each unskipped one carries
// an *ExhaustedError naming every rig of the pool as tried (a stranded
// unit would show zero attempts, or never arrive).
func TestBreakerStrandedUnitsSurfaceTyped(t *testing.T) {
	for _, rigs := range []int{1, 2} {
		var runners []Runner
		for i := 0; i < rigs; i++ {
			runners = append(runners, newFakeRunner(t, fmt.Sprintf("rig-dead-%d", i), "Q845", -1))
		}
		pool, err := NewPool(runners...)
		if err != nil {
			t.Fatal(err)
		}
		m := failureMatrix(t, "Q845")
		var (
			mu    sync.Mutex
			units []UnitResult
		)
		agg, err := pool.Run(context.Background(), m, Config{
			NoCooldown: true,
			OnUnit: func(ur UnitResult) {
				mu.Lock()
				units = append(units, ur)
				mu.Unlock()
			},
		})
		if err == nil {
			t.Fatalf("%d rigs: a fully-dead pool must surface an error", rigs)
		}
		if !errors.Is(err, errs.ErrExhausted) {
			t.Fatalf("%d rigs: err = %v, want errs.ErrExhausted on the chain", rigs, err)
		}
		expanded, err := m.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if len(agg.Units()) != len(expanded) || len(units) != len(expanded) {
			t.Fatalf("%d rigs: aggregator holds %d units, OnUnit saw %d, want all %d (no cell may vanish)",
				rigs, len(agg.Units()), len(units), len(expanded))
		}
		tried := 0
		for _, ur := range units {
			if ur.Unit.Skip != "" {
				continue
			}
			var ex *ExhaustedError
			if !errors.As(ur.Err, &ex) {
				t.Fatalf("%d rigs: unit %d error %v is not an ExhaustedError", rigs, ur.Unit.Index, ur.Err)
			}
			if ex.Attempts != rigs || len(ex.Tried) != rigs {
				t.Fatalf("%d rigs: unit %d exhausted after %d attempts on %v, want every rig tried once",
					rigs, ur.Unit.Index, ex.Attempts, ex.Tried)
			}
			tried++
		}
		if tried == 0 {
			t.Fatalf("%d rigs: the matrix has no unskipped cell", rigs)
		}
	}
}

func TestRetryAttemptsCapScheduling(t *testing.T) {
	// Both rigs would fail the first unit once; with the policy's single
	// attempt as the cap, no fail-over to the second rig happens.
	r1 := newFakeRunner(t, "rig-1", "Q845", -1)
	r2 := newFakeRunner(t, "rig-2", "Q845", 0)
	pool, err := NewPool(r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	var exhausted []*ExhaustedError
	_, err = pool.Run(context.Background(), failureMatrix(t, "Q845"), Config{
		NoCooldown: true,
		Retry:      &retry.Policy{Attempts: 1},
		OnUnit: func(ur UnitResult) {
			var ex *ExhaustedError
			if errors.As(ur.Err, &ex) {
				exhausted = append(exhausted, ex)
			}
		},
	})
	for _, ex := range exhausted {
		if ex.Attempts != 1 {
			t.Fatalf("unit exhausted after %d attempts, want 1 (Retry.Attempts must cap scheduling)", ex.Attempts)
		}
	}
	if err == nil && len(exhausted) == 0 {
		// Scheduling is racy in *which* rig claims first; only assert the
		// cap when the dead rig got there. A clean run means rig-2 claimed
		// everything — rerun deterministically by forcing rig-1 only.
		pool2, _ := NewPool(newFakeRunner(t, "rig-solo", "Q845", -1))
		_, err2 := pool2.Run(context.Background(), failureMatrix(t, "Q845"), Config{
			NoCooldown: true,
			Retry:      &retry.Policy{Attempts: 1},
		})
		if !errors.Is(err2, errs.ErrExhausted) {
			t.Fatalf("solo dead rig: %v, want ErrExhausted", err2)
		}
	}
}

func TestRetryPacingIsCancellable(t *testing.T) {
	testutil.NoLeakedGoroutines(t)
	dead := newFakeRunner(t, "rig-dead", "Q845", -1)
	pool, err := NewPool(dead)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = pool.Run(ctx, failureMatrix(t, "Q845"), Config{
		NoCooldown: true,
		// Hour-long backoff: only cancellation can end this promptly.
		Retry: &retry.Policy{Attempts: 100, BaseDelay: time.Hour, Multiplier: 1},
	})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled run took %v — pacing sleep ignored the context", elapsed)
	}
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
}

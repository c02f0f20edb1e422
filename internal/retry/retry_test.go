package retry

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

func TestZeroPolicySingleAttempt(t *testing.T) {
	calls := 0
	boom := errors.New("boom")
	err := Do(context.Background(), Policy{}, func(context.Context) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (zero policy must not retry)", calls)
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	calls := 0
	err := Do(context.Background(), Policy{Attempts: 5}, func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	calls := 0
	boom := errors.New("always")
	err := Do(context.Background(), Policy{Attempts: 4}, func(context.Context) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
}

func TestPermanentStopsImmediately(t *testing.T) {
	calls := 0
	fatal := errors.New("fatal")
	err := Do(context.Background(), Policy{Attempts: 10}, func(context.Context) error {
		calls++
		return Permanent(fatal)
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	// Do unwraps the Permanent marker: callers match the original error.
	if !errors.Is(err, fatal) {
		t.Fatalf("err = %v, want %v", err, fatal)
	}
	if _, ok := err.(*permanentError); ok {
		t.Fatalf("Do leaked the permanent wrapper")
	}
}

func TestPermanentNil(t *testing.T) {
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) != nil")
	}
	if Hint(nil, time.Second) != nil {
		t.Fatal("Hint(nil, d) != nil")
	}
}

func TestDoHonorsCancellationDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	start := time.Now()
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	err := Do(ctx, Policy{Attempts: 3, BaseDelay: time.Hour}, func(context.Context) error {
		calls++
		return errors.New("transient")
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Do blocked %v in backoff despite cancellation", elapsed)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled on chain", err)
	}
}

func TestDoStopsWhenOpSeesCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Do(ctx, Policy{Attempts: 10}, func(context.Context) error {
		calls++
		cancel()
		return errors.New("transient")
	})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (dead ctx must stop the ladder)", calls)
	}
	if err == nil {
		t.Fatal("err = nil, want the op error")
	}
}

func TestDelaySchedule(t *testing.T) {
	p := Policy{Attempts: 5, BaseDelay: 50 * time.Millisecond, Multiplier: 2, MaxDelay: 150 * time.Millisecond}
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 150 * time.Millisecond, 150 * time.Millisecond}
	for i, w := range want {
		if got := p.Delay(i + 1); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := (Policy{}).Delay(1); got != 0 {
		t.Fatalf("zero-policy Delay = %v, want 0", got)
	}
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	p := Policy{BaseDelay: time.Second, Multiplier: 1, Jitter: 0.5, Seed: 7}
	for n := 1; n <= 10; n++ {
		d1, d2 := p.Delay(n), p.Delay(n)
		if d1 != d2 {
			t.Fatalf("Delay(%d) nondeterministic: %v vs %v", n, d1, d2)
		}
		if d1 > time.Second || d1 < 500*time.Millisecond {
			t.Fatalf("Delay(%d) = %v outside [base/2, base]", n, d1)
		}
	}
	other := Policy{BaseDelay: time.Second, Multiplier: 1, Jitter: 0.5, Seed: 8}
	same := true
	for n := 1; n <= 10; n++ {
		if p.Delay(n) != other.Delay(n) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter streams")
	}
}

func TestHintOverridesBackoff(t *testing.T) {
	calls := 0
	var waited time.Duration
	start := time.Now()
	p := Policy{Attempts: 2, BaseDelay: time.Hour, MaxDelay: 30 * time.Millisecond}
	err := Do(context.Background(), p, func(context.Context) error {
		calls++
		if calls == 1 {
			// Server asks for a long wait; MaxDelay caps it so the test is fast
			// and the ladder never outwaits its policy.
			return Hint(errors.New("429"), time.Hour)
		}
		waited = time.Since(start)
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if waited < 30*time.Millisecond {
		t.Fatalf("retry fired after %v, before the hinted wait", waited)
	}
	if waited > 10*time.Second {
		t.Fatalf("hint not capped by MaxDelay: waited %v", waited)
	}
}

func TestHintFrom(t *testing.T) {
	base := errors.New("x")
	if _, ok := HintFrom(base); ok {
		t.Fatal("HintFrom(plain) reported a hint")
	}
	d, ok := HintFrom(Hint(base, 3*time.Second))
	if !ok || d != 3*time.Second {
		t.Fatalf("HintFrom = (%v, %v), want (3s, true)", d, ok)
	}
	if !errors.Is(Hint(base, time.Second), base) {
		t.Fatal("Hint broke the error chain")
	}
}

func TestBudgetStopsRetries(t *testing.T) {
	boom := errors.New("slow")
	for _, tc := range []struct {
		name string
		p    Policy
		err  error
	}{
		// An hour-long computed wait exceeds a 1 ms budget.
		{"backoff", Policy{Attempts: 100, BaseDelay: time.Hour, Budget: time.Millisecond}, boom},
		// The largest Retry-After wait (what ParseRetryAfter saturates to)
		// must trip the budget, not overflow elapsed+wait and sleep on.
		{"saturated hint", Policy{Attempts: 3, Budget: time.Hour}, Hint(boom, math.MaxInt64)},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		calls := 0
		err := Do(ctx, tc.p, func(context.Context) error {
			calls++
			return tc.err
		})
		cancel()
		if calls != 1 || !errors.Is(err, boom) || errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: calls = %d, err = %v; want one attempt ended by the budget", tc.name, calls, err)
		}
	}
}

func TestSleepCancellable(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep on dead ctx = %v, want context.Canceled", err)
	}
	if err := Sleep(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("zero Sleep on dead ctx = %v, want context.Canceled", err)
	}
	if err := Sleep(context.Background(), 0); err != nil {
		t.Fatalf("zero Sleep = %v, want nil", err)
	}
}

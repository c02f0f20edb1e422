// Package retry is gaugeNN's single retry/backoff policy: every layer
// that re-issues failed work — the crawler's store requests, the fleet
// scheduler's retry-with-exclusion pacing, the bench master's dial and
// handshake rounds — routes through one Policy type instead of hand-rolled
// ladders. A Policy is a value (no hidden state), its jitter is seeded and
// deterministic, and Do is ctx-aware throughout: a cancelled caller never
// sits out a backoff.
//
// Classification is by error shape, not by layer: operations wrap
// non-retryable failures with Permanent, and servers that direct their own
// pacing (Retry-After on 429/503) attach a Hint that overrides the
// computed backoff, capped by the policy's MaxDelay and Budget.
package retry

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Policy shapes one retry ladder. The zero value performs exactly one
// attempt — "no retries" is the absence of a policy, never a panic.
type Policy struct {
	// Attempts is the total attempt cap, first try included (<= 0 means 1).
	Attempts int
	// BaseDelay spaces the first retry; later retries grow by Multiplier.
	// Zero retries immediately.
	BaseDelay time.Duration
	// MaxDelay caps each individual wait, including server-directed
	// Retry-After hints (0 = no cap).
	MaxDelay time.Duration
	// Multiplier grows the backoff per attempt (<= 0 means 2).
	Multiplier float64
	// Jitter randomises each wait downward by up to this fraction [0, 1),
	// de-synchronising clients without ever exceeding the computed delay.
	// The randomness is a pure function of (Seed, attempt): equal policies
	// reproduce equal schedules, which the chaos suite relies on.
	Jitter float64
	// Seed drives the deterministic jitter stream.
	Seed int64
	// Budget bounds the total time spent across attempts, sleeps included
	// (0 = no bound). Do gives up rather than start a wait that would
	// overrun it.
	Budget time.Duration
}

// Default is the shared transient-failure ladder: three attempts spaced
// 50 ms, 100 ms (exponential, capped at 2 s), no jitter.
func Default() Policy {
	return Policy{Attempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Multiplier: 2}
}

// attempts resolves the attempt cap.
func (p Policy) attempts() int {
	if p.Attempts <= 0 {
		return 1
	}
	return p.Attempts
}

// Delay returns the wait before attempt n+1 (n >= 1 counts completed
// attempts): BaseDelay * Multiplier^(n-1), capped by MaxDelay, jittered
// downward deterministically from Seed.
func (p Policy) Delay(n int) time.Duration {
	if p.BaseDelay <= 0 || n < 1 {
		return 0
	}
	mult := p.Multiplier
	if mult <= 0 {
		mult = 2
	}
	d := float64(p.BaseDelay)
	for i := 1; i < n; i++ {
		d *= mult
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 && p.Jitter < 1 {
		// splitmix64 over (Seed, n): stateless, allocation-free, identical
		// across runs for equal policies.
		h := uint64(p.Seed)*0x9e3779b97f4a7c15 + uint64(n)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		frac := float64(h>>11) / float64(1<<53)
		d *= 1 - p.Jitter*frac
	}
	return time.Duration(d)
}

// Do runs op under the policy: retry on failure until it succeeds, the
// attempt cap or time budget is exhausted, the error is Permanent, or ctx
// dies (a cancelled backoff returns immediately with the context error on
// the chain). A Hint attached to the error overrides the computed backoff
// — capped by MaxDelay — which is how Retry-After reaches the ladder.
func Do(ctx context.Context, p Policy, op func(ctx context.Context) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	attempts := p.attempts()
	start := time.Now()
	var last error
	for n := 1; ; n++ {
		metAttempts.Inc()
		if n > 1 {
			metRetries.Inc()
		}
		err := op(ctx)
		if err == nil {
			return nil
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return pe.err
		}
		last = err
		if ctx.Err() != nil {
			return last
		}
		if n >= attempts {
			metExhaustions.Inc()
			return last
		}
		d := p.Delay(n)
		if hint, ok := HintFrom(err); ok {
			d = hint
			if p.MaxDelay > 0 && d > p.MaxDelay {
				d = p.MaxDelay
			}
		}
		// Compared as a remainder so a saturated hint cannot overflow the sum.
		if p.Budget > 0 && d > p.Budget-time.Since(start) {
			metExhaustions.Inc()
			return last
		}
		if d > 0 {
			metBackoffSleeps.Inc()
			metBackoffSeconds.AddDuration(d)
		}
		if err := Sleep(ctx, d); err != nil {
			return fmt.Errorf("%w (after: %w)", err, last)
		}
	}
}

// Sleep waits d, or until ctx dies — whichever comes first — returning
// the context error on cancellation. Zero and negative d return nil after
// a ctx check, so tight retry loops still notice cancellation.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// permanentError marks an error Do must not retry.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do stops immediately and returns the original
// error. Use it for failures more attempts cannot fix: 4xx responses,
// malformed payloads, validation errors.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// hintedError carries a server-directed retry delay on the error chain.
type hintedError struct {
	err   error
	after time.Duration
}

func (e *hintedError) Error() string { return e.err.Error() }
func (e *hintedError) Unwrap() error { return e.err }

// Hint attaches a server-directed wait (a parsed Retry-After) to err; Do
// uses it in place of the computed backoff for the next wait, capped by
// the policy's MaxDelay.
func Hint(err error, after time.Duration) error {
	if err == nil {
		return nil
	}
	return &hintedError{err: err, after: after}
}

// HintFrom extracts a server-directed wait from the error chain.
func HintFrom(err error) (time.Duration, bool) {
	var he *hintedError
	if errors.As(err, &he) {
		return he.after, true
	}
	return 0, false
}

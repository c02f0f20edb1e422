package analysis

import (
	"context"
	"errors"
	"sync"

	"github.com/gaugenn/gaugenn/internal/errs"
)

// errMiss ends a warm-only attempt that found no usable persisted record.
// The flight abandons it like a cancelled attempt, so a later caller with
// a graph in hand computes the outcome instead.
var errMiss = errors.New("analysis: no usable persisted record")

// flight is a per-key single-flight memo. The first caller of a key
// computes its outcome; concurrent callers wait for it, or leave when
// their ctx ends; later callers get the recorded outcome, error included.
// An attempt that ends in a context error or in errMiss is abandoned:
// nothing is recorded, its waiters re-examine the key, and the next
// caller computes. Cancellation therefore never poisons a key. The zero
// value is ready to use.
type flight[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*flightCall[V]
	// onRecord, when set, runs after each outcome is recorded, outside mu.
	onRecord func(K)
}

type flightCall[V any] struct {
	settled chan struct{} // closed once the attempt is recorded or abandoned
	done    bool          // the outcome is recorded (guarded by flight.mu)
	val     V
	err     error
}

// do returns key's recorded outcome, running compute when no attempt is
// recorded or in flight. ctx bounds only the wait on another caller's
// attempt; compute observes cancellation itself.
func (f *flight[K, V]) do(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	for {
		f.mu.Lock()
		c, ok := f.calls[key]
		if !ok {
			if f.calls == nil {
				f.calls = map[K]*flightCall[V]{}
			}
			c = &flightCall[V]{settled: make(chan struct{})}
			f.calls[key] = c
			f.mu.Unlock()
			return f.run(key, c, compute)
		}
		done := c.done
		f.mu.Unlock()
		if done {
			return c.val, c.err
		}
		select {
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		case <-c.settled:
			metSingleflightWaits.Inc()
		}
	}
}

func (f *flight[K, V]) run(key K, c *flightCall[V], compute func() (V, error)) (V, error) {
	v, err := compute()
	abandon := errors.Is(err, errMiss) || errs.IsContextError(err)
	f.mu.Lock()
	if abandon {
		delete(f.calls, key)
	} else {
		c.done, c.val, c.err = true, v, err
	}
	f.mu.Unlock()
	close(c.settled)
	if !abandon && f.onRecord != nil {
		f.onRecord(key)
	}
	return v, err
}

// recorded reports whether key's outcome is recorded.
func (f *flight[K, V]) recorded(key K) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.calls[key]
	return ok && c.done
}

// len returns the number of keys recorded or in flight.
func (f *flight[K, V]) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

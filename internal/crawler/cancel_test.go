package crawler

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gaugenn/gaugenn/internal/retry"
	"github.com/gaugenn/gaugenn/internal/testutil"
)

// TestCrawlerRunCancelled cancels a crawl from inside the handle callback
// and checks the contract: Run returns promptly (drained workers, no new
// dispatches), the error chain carries context.Canceled, and the handled
// prefix is consistent (every index delivered at most once).
func TestCrawlerRunCancelled(t *testing.T) {
	testutil.NoLeakedGoroutines(t)
	_, base := startStore(t, 0.02)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cr := &Crawler{Client: NewClient(base), MaxPerCategory: 500, Workers: 4}
	var handled atomic.Int64
	type outcome struct {
		res Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := cr.Run(ctx, "cancelled", func(idx int, meta AppMeta, apkBytes []byte) error {
			if handled.Add(1) == 3 {
				cancel()
			}
			return nil
		})
		ch <- outcome{res, err}
	}()
	var o outcome
	select {
	case o = <-ch:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled crawl did not return")
	}
	if o.err == nil {
		t.Fatal("cancelled crawl returned nil error")
	}
	if !errors.Is(o.err, context.Canceled) {
		t.Fatalf("cancellation not on the chain: %v", o.err)
	}
	if n := handled.Load(); n < 3 {
		t.Fatalf("handled %d apps before cancel", n)
	}
}

// TestCrawlerRunPreCancelled: a dead context stops the crawl before the
// first chart fetch completes the app phase.
func TestCrawlerRunPreCancelled(t *testing.T) {
	_, base := startStore(t, 0.01)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cr := &Crawler{Client: NewClient(base), MaxPerCategory: 5}
	_, err := cr.Run(ctx, "dead", func(idx int, meta AppMeta, apkBytes []byte) error {
		t.Error("handle ran under a dead context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled crawl returned %v", err)
	}
}

// TestClientRetryRespectsCancellation: the retry backoff must not sit out
// its delay once the context is dead.
func TestClientRetryRespectsCancellation(t *testing.T) {
	c := NewClient("http://127.0.0.1:1") // nothing listens: every attempt errors
	// Would block for days if cancellation were ignored.
	c.Retry = &retry.Policy{Attempts: 1001, BaseDelay: time.Hour, Multiplier: 1}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Categories(ctx)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("unreachable store returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled retry loop stayed in backoff")
	}
}

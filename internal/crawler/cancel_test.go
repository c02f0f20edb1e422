package crawler

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gaugenn/gaugenn/internal/playstore"
	"github.com/gaugenn/gaugenn/internal/retry"
	"github.com/gaugenn/gaugenn/internal/testutil"
)

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestCrawlerRunCancelled cancels a listing once three charts have been
// served and checks the contract: Charts returns promptly with
// context.Canceled on the chain and no partial listing, and leaves no
// goroutine behind.
func TestCrawlerRunCancelled(t *testing.T) {
	testutil.NoLeakedGoroutines(t)
	_, base := startStore(t, 0.02)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := NewClient(base)
	var charts atomic.Int64
	c.HTTPClient.Transport = roundTripFunc(func(req *http.Request) (*http.Response, error) {
		resp, err := http.DefaultTransport.RoundTrip(req)
		if req.URL.Path == "/fdfe/topCharts" && charts.Add(1) == 3 {
			cancel()
		}
		return resp, err
	})
	type outcome struct {
		apps []AppMeta
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		apps, err := c.Charts(ctx, playstore.ChartDepth, 4)
		ch <- outcome{apps, err}
	}()
	var o outcome
	select {
	case o = <-ch:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled listing did not return")
	}
	if !errors.Is(o.err, context.Canceled) {
		t.Fatalf("cancellation not on the chain: %v", o.err)
	}
	if o.apps != nil {
		t.Fatalf("cancelled listing returned %d apps", len(o.apps))
	}
}

// TestCrawlerRunPreCancelled: a dead context lists nothing.
func TestCrawlerRunPreCancelled(t *testing.T) {
	_, base := startStore(t, 0.01)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	apps, err := NewClient(base).Charts(ctx, playstore.ChartDepth, 4)
	if !errors.Is(err, context.Canceled) || apps != nil {
		t.Fatalf("pre-cancelled listing returned %d apps, err %v", len(apps), err)
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

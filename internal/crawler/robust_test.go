package crawler

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gaugenn/gaugenn/internal/android/apk"
	"github.com/gaugenn/gaugenn/internal/retry"
)

func TestClientHonorsRetryAfterOn429(t *testing.T) {
	var count atomic.Int64
	var firstRetry atomic.Int64
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := count.Add(1)
		if n == 1 {
			served.Store(time.Now().UnixNano())
			w.Header().Set("Retry-After", "1")
			http.Error(w, "slow down", http.StatusTooManyRequests)
			return
		}
		firstRetry.Store(time.Now().UnixNano())
		json.NewEncoder(w).Encode([]string{"COMMUNICATION"})
	}))
	t.Cleanup(srv.Close)

	c := NewClient(srv.URL)
	// BaseDelay is near-zero: only the Retry-After hint can explain a
	// measurable gap before the retry.
	c.Retry = &retry.Policy{Attempts: 3, BaseDelay: time.Nanosecond, MaxDelay: time.Minute, Multiplier: 1}
	if _, err := c.Categories(context.Background()); err != nil {
		t.Fatalf("429 then 200 should recover: %v", err)
	}
	if count.Load() != 2 {
		t.Fatalf("requests = %d, want 2", count.Load())
	}
	gap := time.Duration(firstRetry.Load() - served.Load())
	if gap < 900*time.Millisecond {
		t.Fatalf("retry fired %v after the 429; Retry-After: 1 was not honoured", gap)
	}
}

func TestClientCapsRetryAfterByMaxDelay(t *testing.T) {
	var count atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if count.Add(1) == 1 {
			w.Header().Set("Retry-After", "3600") // an hour — must be capped
			http.Error(w, "slow down", http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode([]string{"COMMUNICATION"})
	}))
	t.Cleanup(srv.Close)

	c := NewClient(srv.URL)
	c.Retry = &retry.Policy{Attempts: 2, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond, Multiplier: 1}
	start := time.Now()
	if _, err := c.Categories(context.Background()); err != nil {
		t.Fatalf("503 then 200 should recover: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("hour-long Retry-After not capped by MaxDelay (took %v)", elapsed)
	}
	if count.Load() != 2 {
		t.Fatalf("requests = %d, want 2", count.Load())
	}
}

func TestClientDefaultPolicyRetries(t *testing.T) {
	srv, count := flakyStore(t, 2)
	c := NewClient(srv.URL) // no retry knobs set at all
	if _, err := c.Categories(context.Background()); err != nil {
		t.Fatalf("default policy should ride out two 500s: %v", err)
	}
	if count.Load() != 3 {
		t.Fatalf("requests = %d, want 3 under retry.Default()", count.Load())
	}
}

func TestClientBreakerFailsFast(t *testing.T) {
	var count atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		count.Add(1)
		http.Error(w, "dead backend", http.StatusInternalServerError)
	}))
	t.Cleanup(srv.Close)

	c := NewClient(srv.URL)
	c.Retry = &retry.Policy{Attempts: 3, BaseDelay: time.Millisecond, Multiplier: 1}
	c.Breaker = retry.NewBreaker(3)
	if _, err := c.Categories(context.Background()); err == nil {
		t.Fatal("dead backend should fail")
	}
	reqsAfterTrip := count.Load()
	if reqsAfterTrip != 3 {
		t.Fatalf("first ladder made %d requests, want 3", reqsAfterTrip)
	}
	_, err := c.Categories(context.Background())
	if !errors.Is(err, retry.ErrOpen) {
		t.Fatalf("tripped breaker returned %v, want retry.ErrOpen", err)
	}
	if count.Load() != reqsAfterTrip {
		t.Fatalf("open circuit still issued %d requests", count.Load()-reqsAfterTrip)
	}
}

// TestClientRefusesOversizedBody streams a chunked body one byte past the
// base-APK cap. The download must fail naming the cap after one request
// (asking again returns the same body), and reading it must allocate
// about the cap: io.ReadAll's regrowth allocated about five times the
// body, without bound.
func TestClientRefusesOversizedBody(t *testing.T) {
	var requests atomic.Int64
	chunk := make([]byte, 1<<20)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		// No Content-Length: a body past the server's buffer goes out chunked.
		for left := apk.MaxBaseAPKSize + 1; left > 0; left -= len(chunk) {
			if _, err := w.Write(chunk[:min(left, len(chunk))]); err != nil {
				return
			}
		}
	}))
	t.Cleanup(srv.Close)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := NewClient(srv.URL).DownloadAPK(context.Background(), "com.huge.app")
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(apk.MaxBaseAPKSize)) {
		t.Fatalf("err = %v, want one naming the %d-byte cap", err, apk.MaxBaseAPKSize)
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("%d requests, want 1: an oversized body must not be retried", n)
	}
	const bound = 3 * apk.MaxBaseAPKSize / 2
	if rise := after.TotalAlloc - before.TotalAlloc; rise > bound {
		t.Fatalf("reading the body allocated %d MiB, want at most %d MiB", rise>>20, bound>>20)
	}
}

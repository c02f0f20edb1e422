package crawler

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gaugenn/gaugenn/internal/retry"
)

// flakyStore fails the first n requests with 500, then serves.
func flakyStore(t *testing.T, failFirst int64) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var count atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if count.Add(1) <= failFirst {
			http.Error(w, "backend hiccup", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode([]string{"COMMUNICATION"})
	}))
	t.Cleanup(srv.Close)
	return srv, &count
}

func TestClientRetriesTransientFailures(t *testing.T) {
	srv, count := flakyStore(t, 2)
	c := NewClient(srv.URL)
	c.Retry = &retry.Policy{Attempts: 4, BaseDelay: time.Millisecond, Multiplier: 1}
	cats, err := c.Categories(context.Background())
	if err != nil {
		t.Fatalf("retries should recover: %v", err)
	}
	if len(cats) != 1 || cats[0] != "COMMUNICATION" {
		t.Fatalf("payload: %v", cats)
	}
	if count.Load() != 3 {
		t.Fatalf("requests = %d, want 3 (2 failures + 1 success)", count.Load())
	}
}

func TestClientGivesUpAfterRetries(t *testing.T) {
	srv, count := flakyStore(t, 100)
	c := NewClient(srv.URL)
	c.Retry = &retry.Policy{Attempts: 3, BaseDelay: time.Millisecond, Multiplier: 1}
	if _, err := c.Categories(context.Background()); err == nil {
		t.Fatal("persistent failure should surface")
	}
	if count.Load() != 3 {
		t.Fatalf("requests = %d, want 3 attempts", count.Load())
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var count atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		count.Add(1)
		http.Error(w, "bad request", http.StatusBadRequest)
	}))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	c.Retry = &retry.Policy{Attempts: 6, BaseDelay: time.Millisecond, Multiplier: 1}
	if _, err := c.Categories(context.Background()); err == nil {
		t.Fatal("400 should fail")
	}
	if count.Load() != 1 {
		t.Fatalf("4xx must not be retried, got %d attempts", count.Load())
	}
}

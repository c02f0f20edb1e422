package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/gaugenn/gaugenn/internal/core"
	"github.com/gaugenn/gaugenn/internal/store"
)

// endpoint names one measured read route.
type endpoint struct{ name, path string }

// queryFixture persists a real study, larger than the correctness tests
// use so per-request costs that scale with the corpus show up, and
// returns the server's handler and one warm-steady-state URL per read
// endpoint.
func queryFixture(tb testing.TB) (http.Handler, []endpoint) {
	tb.Helper()
	dir := tb.TempDir()
	cfg := core.DefaultConfig(77, 0.1)
	cfg.UseHTTP = false
	cfg.CacheDir = dir
	cfg.Resume = true
	res, err := core.Run(context.Background(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	id := res.Persist.StudyID
	sum := string(res.Corpus21.SortedUniques()[0].Checksum)
	return New(st).Handler(), []endpoint{
		{"model", "/api/models/" + sum},
		{"diff", fmt.Sprintf("/api/diff?from=%s&to=%s", id, id)},
		{"study", "/api/studies/" + id},
		{"studies", "/api/studies"},
		{"healthz", "/healthz"},
	}
}

// BenchmarkServeQueries measures the query engine's warm steady state
// per endpoint on a real persisted study. Run with -benchmem; the
// allocs/op column is gated by TestQueryAllocsPerRequest.
//
//	go test -run '^$' -bench BenchmarkServeQueries -benchmem ./internal/serve/
func BenchmarkServeQueries(b *testing.B) {
	h, paths := queryFixture(b)
	for _, p := range paths {
		b.Run(p.name, func(b *testing.B) {
			// Warm every cache, then measure the steady state. Request and
			// recorder are reused across iterations (ServeMux never mutates
			// the request; the recorder just resets its body) so the
			// allocs/op column is the server's work, not the harness's.
			req := httptest.NewRequest("GET", p.path, nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("GET %s = %d: %s", p.path, rec.Code, rec.Body.String())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.Body.Reset()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("GET %s = %d", p.path, rec.Code)
				}
			}
		})
	}
}

// TestQueryAllocsPerRequest is the allocation gate on
// BenchmarkServeQueries' fixture, measured the same way: after one
// warming request, each query endpoint's steady state must stay within
// its ceiling of allocations per request, which leaves about 2x headroom.
// A lost memo, with every request re-hashing validators or re-rendering
// JSON, trips it.
func TestQueryAllocsPerRequest(t *testing.T) {
	ceilings := map[string]float64{"model": 12, "diff": 16, "study": 18, "studies": 16}
	h, paths := queryFixture(t)
	for _, p := range paths {
		ceiling, ok := ceilings[p.name]
		if !ok {
			continue
		}
		req := httptest.NewRequest("GET", p.path, nil)
		rec := httptest.NewRecorder()
		n := testing.AllocsPerRun(100, func() {
			rec.Body.Reset()
			h.ServeHTTP(rec, req)
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", p.path, rec.Code, rec.Body.String())
		}
		t.Logf("%s: %.0f allocations per request, ceiling %.0f", p.name, n, ceiling)
		if n > ceiling {
			t.Errorf("%s: %.0f allocations per request, want at most %.0f", p.name, n, ceiling)
		}
	}
}

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

// BenchmarkServeQueries measures the query engine's warm steady state
// per endpoint on a real persisted study. Run with -benchmem: the
// allocs/op column is the regression gate (queries.ci_ceilings in
// BENCH_serve.json).
//
//	go test -run '^$' -bench BenchmarkServeQueries -benchmem ./internal/serve/
func BenchmarkServeQueries(b *testing.B) {
	// A larger study than the correctness tests use, so per-request costs
	// that scale with the corpus show up.
	dir := b.TempDir()
	cfg := core.DefaultConfig(77, 0.1)
	cfg.UseHTTP = false
	cfg.CacheDir = dir
	cfg.Resume = true
	res, err := core.Run(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	id := res.Persist.StudyID
	sum := string(res.Corpus21.SortedUniques()[0].Checksum)
	paths := []struct{ name, path string }{
		{"model", "/api/models/" + sum},
		{"diff", fmt.Sprintf("/api/diff?from=%s&to=%s", id, id)},
		{"study", "/api/studies/" + id},
		{"studies", "/api/studies"},
		{"healthz", "/healthz"},
	}
	h := New(st).Handler()
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

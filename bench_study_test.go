// Pipeline throughput benchmarks: the end-to-end study (generate ->
// crawl/package -> extract -> analyse, both snapshots) at a fixed 10%
// scale under increasing worker counts. BENCH_baseline.json records the
// trajectory; the acceptance bar is >= 2x at workers=4 vs workers=1 on a
// 4+-core runner, with byte-identical corpora across worker counts
// (asserted by TestRunStudyDeterministicAcrossWorkerCounts).
//
// The "warm" case re-runs an identical study against a populated cache
// dir (the persistent content-addressed store): packaging, extraction,
// graph decode and profiling are all served from disk, with corpora
// byte-identical to the cold run (asserted by
// TestRunStudyWarmRerunZeroDecodesByteIdentical and
// TestAPKMemoWarmRerunPackagesNothing; BENCH_resume.json records the
// numbers).
//
//	go test -bench RunStudy -benchtime 3x -timeout 0
package gaugenn_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/gaugenn/gaugenn/internal/core"
)

func BenchmarkRunStudy(b *testing.B) {
	const benchScale = 0.1
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(studySeed, benchScale)
				cfg.UseHTTP = false // packaging+extraction dominate; HTTP adds server noise
				cfg.Workers = workers
				res, err := core.Run(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Corpus21.TotalModels() == 0 {
					b.Fatal("degenerate study")
				}
			}
		})
	}
	b.Run("warm", func(b *testing.B) {
		cfg := core.DefaultConfig(studySeed, benchScale)
		cfg.UseHTTP = false
		cfg.CacheDir = b.TempDir()
		cfg.Resume = true
		// Populate the store outside the timer; the measured iterations
		// are pure warm re-runs.
		if _, err := core.Run(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := core.Run(context.Background(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.Persist.Cache.Decodes != 0 || res.Persist.ExtractedReports != 0 || res.Persist.Packaged != 0 {
				b.Fatalf("warm benchmark recomputed: %+v", res.Persist)
			}
		}
	})
}

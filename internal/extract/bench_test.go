package extract

import (
	"context"
	"runtime"
	"testing"

	"github.com/gaugenn/gaugenn/internal/playstore"
)

// benchAPKs builds a deterministic set of fixture APKs: the first 16 ML
// apps of a generated store.
func benchAPKs(tb testing.TB) [][]byte {
	tb.Helper()
	study, err := playstore.GenerateStudy(playstore.DefaultConfig(20210404, 0.04))
	if err != nil {
		tb.Fatal(err)
	}
	var apks [][]byte
	for _, a := range study.Snap21.Apps {
		if !a.HasML() {
			continue
		}
		apkBytes, err := study.Snap21.BuildAPK(a)
		if err != nil {
			tb.Fatal(err)
		}
		apks = append(apks, apkBytes)
		if len(apks) >= 16 {
			break
		}
	}
	if len(apks) == 0 {
		tb.Fatal("no ML apps generated")
	}
	return apks
}

// BenchmarkExtract measures the per-APK extraction hot path. The cold
// variant decodes every model; the cached variant exercises the
// hash-before-decode front door the study pipeline uses, where duplicate
// payloads skip decoding (after the first iteration every payload is
// warm, matching the pipeline's snapshot-overlap behaviour).
// TestExtractAllocsPerPass holds both variants to their allocation
// ceilings.
func BenchmarkExtract(b *testing.B) {
	apks := benchAPKs(b)
	var total int64
	for _, a := range apks {
		total += int64(len(a))
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(total)
		for i := 0; i < b.N; i++ {
			models := 0
			for _, apkBytes := range apks {
				rep, err := ExtractAPK(apkBytes)
				if err != nil {
					b.Fatal(err)
				}
				models += len(rep.Models)
			}
			if models == 0 {
				b.Fatal("degenerate fixture: no models extracted")
			}
		}
	})

	b.Run("cached", func(b *testing.B) {
		cache := newTestDecodeCache()
		b.ReportAllocs()
		b.SetBytes(total)
		for i := 0; i < b.N; i++ {
			for _, apkBytes := range apks {
				if _, err := ExtractAPKCached(context.Background(), apkBytes, cache); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// TestExtractAllocsPerPass is the allocation gate on BenchmarkExtract's
// fixture. It counts each variant's mean allocations per pass over the 16
// APKs the way `go test -bench BenchmarkExtract -benchtime 5x -benchmem`
// counts allocs/op: over five passes, the cached variant starting from an
// empty cache, so its first pass decodes every payload and the other
// four hit. The ceilings keep about 1.5x headroom over those counts.
func TestExtractAllocsPerPass(t *testing.T) {
	const passes = 5
	apks := benchAPKs(t)
	cold := func() {
		for _, a := range apks {
			if _, err := ExtractAPK(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	cache := newTestDecodeCache()
	cached := func() {
		for _, a := range apks {
			if _, err := ExtractAPKCached(context.Background(), a, cache); err != nil {
				t.Fatal(err)
			}
		}
	}
	cold() // lazily built package state settles outside the counts
	for _, tc := range []struct {
		name    string
		pass    func()
		ceiling uint64
	}{
		{"cold", cold, 27000},
		{"cached", cached, 6000},
	} {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for i := 0; i < passes; i++ {
			tc.pass()
		}
		runtime.ReadMemStats(&ms)
		n := (ms.Mallocs - before) / passes
		t.Logf("%s: %d allocations per pass, ceiling %d", tc.name, n, tc.ceiling)
		if n > tc.ceiling {
			t.Errorf("%s: %d allocations per 16-APK pass, want at most %d", tc.name, n, tc.ceiling)
		}
	}
}

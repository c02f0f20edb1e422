package analysis

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"github.com/gaugenn/gaugenn/internal/extract"
	"github.com/gaugenn/gaugenn/internal/playstore"
)

// snapshotReports extracts every app of a snapshot once, so shard tests can
// replay the same report stream through different ingestion layouts.
type indexedReport struct {
	idx      int
	category string
	rep      *extract.Report // nil for apps without ML signals
	info     AppInfo
}

func extractAll(t *testing.T, snap *playstore.Snapshot) []indexedReport {
	t.Helper()
	var out []indexedReport
	for i, a := range snap.Apps {
		ir := indexedReport{idx: i, category: string(a.Category)}
		if !a.HasML() {
			ir.info = AppInfo{Package: a.Package, Category: string(a.Category)}
		} else {
			apkBytes, err := snap.BuildAPK(a)
			if err != nil {
				t.Fatalf("%s: %v", a.Package, err)
			}
			rep, err := extract.ExtractAPK(apkBytes)
			if err != nil {
				t.Fatalf("%s: %v", a.Package, err)
			}
			ir.rep = rep
		}
		out = append(out, ir)
	}
	return out
}

func ingestSharded(t *testing.T, label string, reports []indexedReport, shardCount, workers int) *Corpus {
	t.Helper()
	s := NewShardedCorpus(label, false, shardCount, nil)
	var wg sync.WaitGroup
	jobs := make(chan indexedReport)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ir := range jobs {
				if ir.rep == nil {
					s.AddApp(ir.idx, ir.info)
					continue
				}
				if err := s.AddReport(context.Background(), ir.idx, ir.category, ir.rep); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for _, ir := range reports {
		jobs <- ir
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	return s.Merge()
}

func corpusFingerprint(c *Corpus) (records []Record, apps []string, uniques []string, instances []int) {
	records = c.Records
	for _, a := range c.Apps {
		apps = append(apps, a.Package)
	}
	for _, u := range c.SortedUniques() {
		// Framework included: twins ship one checksum under several
		// formats, so the field is a determinism tripwire.
		uniques = append(uniques, string(u.Checksum)+"/"+u.Framework)
		instances = append(instances, u.Instances)
	}
	return
}

func TestShardedMergeMatchesSequentialIngest(t *testing.T) {
	st := study(t)
	reports := extractAll(t, st.Snap21)

	seq := NewCorpus("seq", false)
	for _, ir := range reports {
		if ir.rep == nil {
			seq.AddApp(ir.info)
			continue
		}
		if err := seq.AddReport(context.Background(), ir.category, ir.rep); err != nil {
			t.Fatal(err)
		}
	}
	seqRec, seqApps, seqUniq, seqInst := corpusFingerprint(seq)

	for _, layout := range []struct{ shards, workers int }{
		{1, 1}, {4, 4}, {8, 3}, {3, 8},
	} {
		merged := ingestSharded(t, "sharded", reports, layout.shards, layout.workers)
		mRec, mApps, mUniq, mInst := corpusFingerprint(merged)
		if !reflect.DeepEqual(seqRec, mRec) {
			t.Fatalf("shards=%d workers=%d: record stream diverges", layout.shards, layout.workers)
		}
		if !reflect.DeepEqual(seqApps, mApps) {
			t.Fatalf("shards=%d workers=%d: app order diverges", layout.shards, layout.workers)
		}
		if !reflect.DeepEqual(seqUniq, mUniq) || !reflect.DeepEqual(seqInst, mInst) {
			t.Fatalf("shards=%d workers=%d: uniques diverge", layout.shards, layout.workers)
		}
		if got, want := merged.InstancesSharedAcrossApps(), seq.InstancesSharedAcrossApps(); got != want {
			t.Fatalf("shards=%d workers=%d: shared fraction %v != %v", layout.shards, layout.workers, got, want)
		}
		got, want := merged.Dataset(), seq.Dataset()
		got.Label, want.Label = "", ""
		if got != want {
			t.Fatalf("shards=%d workers=%d: dataset %+v != %+v", layout.shards, layout.workers, got, want)
		}
	}
}

func TestUniqueCacheSingleFlight(t *testing.T) {
	st := study(t)
	reports := extractAll(t, st.Snap21)
	var model *extract.Model
	for _, ir := range reports {
		if ir.rep != nil && len(ir.rep.Models) > 0 {
			model = &ir.rep.Models[0]
			break
		}
	}
	if model == nil {
		t.Skip("no models at this scale")
	}
	cache := NewUniqueCache(false)
	const n = 16
	ptrs := make([]*uniqueData, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := cache.get(context.Background(), *model)
			if err != nil {
				t.Error(err)
				return
			}
			ptrs[i] = d
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if ptrs[i] != ptrs[0] {
			t.Fatal("concurrent gets computed the checksum more than once")
		}
	}
	if cache.Size() != 1 {
		t.Fatalf("cache size = %d, want 1", cache.Size())
	}
}

func TestSharedCacheSkipsCrossCorpusRecompute(t *testing.T) {
	st := study(t)
	reports := extractAll(t, st.Snap21)
	cache := NewUniqueCache(false)
	a := NewCorpusWithCache("a", false, cache)
	b := NewCorpusWithCache("b", false, cache)
	for _, ir := range reports {
		if ir.rep == nil {
			continue
		}
		if err := a.AddReport(context.Background(), ir.category, ir.rep); err != nil {
			t.Fatal(err)
		}
		if err := b.AddReport(context.Background(), ir.category, ir.rep); err != nil {
			t.Fatal(err)
		}
	}
	if a.UniqueModels() != b.UniqueModels() {
		t.Fatalf("corpora diverge: %d vs %d uniques", a.UniqueModels(), b.UniqueModels())
	}
	// The cache holds exactly one entry per distinct checksum even though
	// two corpora ingested the same stream.
	if cache.Size() != a.UniqueModels() {
		t.Fatalf("cache size = %d, want %d", cache.Size(), a.UniqueModels())
	}
	// Shared immutable analysis, corpus-owned instance counts.
	for sum, ua := range a.Uniques {
		ub := b.Uniques[sum]
		if ub == nil {
			t.Fatalf("checksum %s missing from b", sum)
		}
		if ua == ub {
			t.Fatal("corpora must not share Unique records (instance counts would collide)")
		}
		if ua.Profile != ub.Profile {
			t.Fatal("profiles should be the shared cached instance")
		}
		if ua.Instances != ub.Instances {
			t.Fatalf("instance counts diverge for %s", sum)
		}
	}
}

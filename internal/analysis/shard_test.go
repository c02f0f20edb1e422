package analysis

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/gaugenn/gaugenn/internal/extract"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
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

// ingestSharded feeds reports, in slice order, to workers goroutines that
// ingest them through cache into one ShardedCorpus presized for presize
// apps.
func ingestSharded(t *testing.T, reports []indexedReport, presize, workers int, keepGraphs bool, cache *UniqueCache) *Corpus {
	t.Helper()
	s := NewShardedCorpus("sharded", keepGraphs, presize, cache)
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
	// The reference is one worker ingesting in index order. The layouts
	// share its cache, which retains graphs for the KeepGraphs layout, so
	// they differ only in how they fill the slots.
	cache := NewUniqueCache(true)
	seq := ingestSharded(t, reports, 0, 1, false, cache)

	// Twins ship one checksum under several frameworks; each must keep
	// its first record's framework in index order.
	firstFramework := map[graph.Checksum]string{}
	twins := map[graph.Checksum]bool{}
	for _, ir := range reports {
		if ir.rep == nil {
			continue
		}
		for _, m := range ir.rep.Models {
			if fw, ok := firstFramework[m.Checksum]; !ok {
				firstFramework[m.Checksum] = m.Framework
			} else if fw != m.Framework {
				twins[m.Checksum] = true
			}
		}
	}
	if len(twins) == 0 {
		t.Fatal("fixture ships no checksum under two frameworks")
	}

	reversed := slices.Clone(reports)
	slices.Reverse(reversed)
	// A quarantined app leaves its index unfilled.
	var gapped []indexedReport
	for _, ir := range reports {
		if ir.idx%7 != 6 {
			gapped = append(gapped, ir)
		}
	}
	seqGapped := ingestSharded(t, gapped, 0, 1, false, cache)

	for _, layout := range []struct {
		name             string
		reports          []indexedReport
		want             *Corpus
		presize, workers int
		keepGraphs       bool
	}{
		{"presized, 4 workers", reports, seq, len(reports), 4, false},
		{"unsized, 3 workers", reports, seq, 0, 3, false},
		{"undersized, 8 workers", reports, seq, 8, 8, false},
		{"reverse index order", reversed, seq, 0, 1, false},
		{"every 7th index never ingested", gapped, seqGapped, len(reports), 4, false},
		{"KeepGraphs", reports, seq, len(reports), 4, true},
	} {
		merged := ingestSharded(t, layout.reports, layout.presize, layout.workers, layout.keepGraphs, cache)
		wRec, wApps, wUniq, wInst := corpusFingerprint(layout.want)
		mRec, mApps, mUniq, mInst := corpusFingerprint(merged)
		if !reflect.DeepEqual(wRec, mRec) {
			t.Fatalf("%s: record stream diverges", layout.name)
		}
		if !reflect.DeepEqual(wApps, mApps) {
			t.Fatalf("%s: app order diverges", layout.name)
		}
		if !reflect.DeepEqual(wUniq, mUniq) || !reflect.DeepEqual(wInst, mInst) {
			t.Fatalf("%s: uniques diverge", layout.name)
		}
		if got, want := merged.InstancesSharedAcrossApps(), layout.want.InstancesSharedAcrossApps(); got != want {
			t.Fatalf("%s: shared fraction %v != %v", layout.name, got, want)
		}
		got, want := merged.Dataset(), layout.want.Dataset()
		if got != want {
			t.Fatalf("%s: dataset %+v != %+v", layout.name, got, want)
		}
		for _, u := range merged.Uniques {
			if (u.Graph != nil) != layout.keepGraphs {
				t.Fatalf("%s: unique %s carries graph %v", layout.name, u.Checksum, u.Graph != nil)
			}
		}
		if layout.want != seq {
			continue
		}
		for sum := range twins {
			if got, want := merged.Uniques[sum].Framework, firstFramework[sum]; got != want {
				t.Fatalf("%s: twin %s has framework %s, want its first record's %s", layout.name, sum, got, want)
			}
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
	sa := NewShardedCorpus("a", false, len(reports), cache)
	sb := NewShardedCorpus("b", false, len(reports), cache)
	for _, ir := range reports {
		if ir.rep == nil {
			continue
		}
		if err := sa.AddReport(context.Background(), ir.idx, ir.category, ir.rep); err != nil {
			t.Fatal(err)
		}
		if err := sb.AddReport(context.Background(), ir.idx, ir.category, ir.rep); err != nil {
			t.Fatal(err)
		}
	}
	a, b := sa.Merge(), sb.Merge()
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

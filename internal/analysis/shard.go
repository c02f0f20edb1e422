package analysis

import (
	"context"
	"sort"
	"sync"

	"github.com/gaugenn/gaugenn/internal/extract"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
)

// ShardedCorpus ingests one snapshot's extraction reports concurrently.
// Each app carries a global crawl index (its deterministic position in
// chart order); the index picks the shard, so the contents of every shard
// — and therefore the merged corpus — depend only on the index stream,
// never on worker scheduling. Per-checksum analysis goes through a shared
// UniqueCache, so shards (and, when the cache is shared wider, snapshots)
// never re-profile a duplicate model.
//
// AddReport/AddApp are safe for concurrent use. Merge is called once,
// after ingestion completes.
type ShardedCorpus struct {
	label      string
	keepGraphs bool
	cache      *UniqueCache
	shards     []*corpusShard
}

type corpusShard struct {
	corpus *Corpus

	mu sync.Mutex
	// appIdx records the global index of each ingested app, parallel to
	// corpus.Apps; recIdx likewise keys corpus.Records for the merge sort.
	appIdx []int
	recIdx []recKey
}

// recKey orders merged records: by owning app, then by the record's
// position inside that app's report (reports list models in path order).
type recKey struct {
	app int
	pos int
}

// NewShardedCorpus creates a shard set. shards is clamped to >= 1; cache
// may be shared across snapshots (nil allocates a private one).
func NewShardedCorpus(label string, keepGraphs bool, shards int, cache *UniqueCache) *ShardedCorpus {
	if shards < 1 {
		shards = 1
	}
	if cache == nil {
		cache = NewUniqueCache(keepGraphs)
	}
	s := &ShardedCorpus{label: label, keepGraphs: keepGraphs, cache: cache}
	for i := 0; i < shards; i++ {
		s.shards = append(s.shards, &corpusShard{
			corpus: NewCorpusWithCache(label, keepGraphs, cache),
		})
	}
	return s
}

func (s *ShardedCorpus) shardFor(idx int) *corpusShard {
	if idx < 0 {
		idx = -idx
	}
	return s.shards[idx%len(s.shards)]
}

// AddReport ingests one app's extraction report under its global index.
// ctx bounds the per-checksum analysis waits (see UniqueCache.get).
func (s *ShardedCorpus) AddReport(ctx context.Context, idx int, category string, rep *extract.Report) error {
	// Warm the per-checksum cache before taking the shard lock, so one
	// app's profiling never serialises another app's ingest into the same
	// shard.
	for _, m := range rep.Models {
		if _, err := s.cache.get(ctx, m); err != nil {
			return err
		}
	}
	sh := s.shardFor(idx)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.corpus.AddReport(ctx, category, rep); err != nil {
		return err
	}
	sh.appIdx = append(sh.appIdx, idx)
	for pos := range rep.Models {
		sh.recIdx = append(sh.recIdx, recKey{app: idx, pos: pos})
	}
	return nil
}

// AddApp ingests an app summary with no extraction report (no ML signals).
func (s *ShardedCorpus) AddApp(idx int, info AppInfo) {
	sh := s.shardFor(idx)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.corpus.AddApp(info)
	sh.appIdx = append(sh.appIdx, idx)
}

// Merge folds every shard into a single Corpus whose Apps and Records
// follow global index order — byte-identical output regardless of the
// shard count or worker interleaving that produced the shards.
func (s *ShardedCorpus) Merge() *Corpus {
	out := NewCorpusWithCache(s.label, s.keepGraphs, s.cache)

	type idxApp struct {
		idx int
		app AppInfo
	}
	type idxRec struct {
		key recKey
		rec Record
	}
	var apps []idxApp
	var recs []idxRec
	for _, sh := range s.shards {
		sh.mu.Lock()
		for i, a := range sh.corpus.Apps {
			apps = append(apps, idxApp{idx: sh.appIdx[i], app: a})
		}
		for i, r := range sh.corpus.Records {
			recs = append(recs, idxRec{key: sh.recIdx[i], rec: r})
		}
		for sum, u := range sh.corpus.Uniques {
			if have, ok := out.Uniques[sum]; ok {
				have.Instances += u.Instances
				if have.Graph == nil && u.Graph != nil {
					have.Graph = u.Graph
				}
			} else {
				cp := *u
				out.Uniques[sum] = &cp
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(apps, func(i, j int) bool { return apps[i].idx < apps[j].idx })
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].key.app != recs[j].key.app {
			return recs[i].key.app < recs[j].key.app
		}
		return recs[i].key.pos < recs[j].key.pos
	})
	out.Apps = make([]AppInfo, len(apps))
	for i, a := range apps {
		out.Apps[i] = a.app
	}
	out.Records = make([]Record, len(recs))
	framework := map[graph.Checksum]bool{}
	for i, r := range recs {
		out.Records[i] = r.rec
		out.noteRecordLocked(r.rec)
		// Shard-local first-seen Framework depends on scheduling (twins
		// ship one checksum under several formats); reassign it from the
		// globally-first record so merges are worker-count-independent.
		if !framework[r.rec.Checksum] {
			framework[r.rec.Checksum] = true
			if u := out.Uniques[r.rec.Checksum]; u != nil {
				u.Framework = r.rec.Framework
			}
		}
	}
	return out
}

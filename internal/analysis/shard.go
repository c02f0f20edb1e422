package analysis

import (
	"context"
	"sort"
	"sync"

	"github.com/gaugenn/gaugenn/internal/extract"
)

// ShardedCorpus builds one snapshot's Corpus from apps ingested
// concurrently. Each app carries a global crawl index (its deterministic
// position in chart order) and lands in that index's slot, so the merged
// corpus depends only on what was ingested under which index, never on
// worker scheduling. Per-checksum analysis goes through a shared
// UniqueCache outside any lock, so concurrent ingesters (and, when the
// cache is shared wider, snapshots) never re-profile a duplicate model.
//
// AddReport/AddApp are safe for concurrent use; each index is ingested at
// most once. Merge is called once, after ingestion completes.
type ShardedCorpus struct {
	label      string
	keepGraphs bool
	cache      *UniqueCache

	mu    sync.Mutex
	slots []appSlot
}

// appSlot is one crawl index's app: its summary and its records in report
// order, each with its analysis. A slot nothing was ingested under (an
// app quarantined before its ingest) stays unset and contributes nothing.
type appSlot struct {
	set    bool
	info   AppInfo
	models []slotRecord
}

type slotRecord struct {
	rec Record
	d   *uniqueData
}

// NewShardedCorpus creates an empty corpus builder whose slot table is
// presized for apps indices (it grows past them as needed). cache may be
// shared across snapshots (nil allocates a private one).
func NewShardedCorpus(label string, keepGraphs bool, apps int, cache *UniqueCache) *ShardedCorpus {
	if cache == nil {
		cache = NewUniqueCache(keepGraphs)
	}
	return &ShardedCorpus{label: label, keepGraphs: keepGraphs, cache: cache, slots: make([]appSlot, max(apps, 0))}
}

// AddReport ingests one app's extraction report under its global index,
// resolving each model's analysis through the cache first. ctx bounds the
// per-checksum analysis waits (see UniqueCache.get).
func (s *ShardedCorpus) AddReport(ctx context.Context, idx int, category string, rep *extract.Report) error {
	models := make([]slotRecord, len(rep.Models))
	for i, m := range rep.Models {
		d, err := s.cache.get(ctx, m)
		if err != nil {
			return err
		}
		models[i] = slotRecord{
			rec: Record{
				Package:   rep.Package,
				Category:  category,
				Path:      m.Path,
				Framework: m.Framework,
				Checksum:  m.Checksum,
				FileBytes: m.FileBytes,
			},
			d: d,
		}
	}
	s.put(idx, appSlot{set: true, info: appInfo(category, rep), models: models})
	return nil
}

// AddApp ingests an app summary with no extraction report (no ML signals).
func (s *ShardedCorpus) AddApp(idx int, info AppInfo) {
	s.put(idx, appSlot{set: true, info: info})
}

func (s *ShardedCorpus) put(idx int, slot appSlot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for idx >= len(s.slots) {
		s.slots = append(s.slots, appSlot{})
	}
	s.slots[idx] = slot
}

// Merge builds the Corpus: Apps and Records in index order, each app's
// records in report order, and every Unique derived from the records by
// Corpus.count. Equal slots give equal corpora, whatever the worker count
// or interleaving that filled them.
func (s *ShardedCorpus) Merge() *Corpus {
	s.mu.Lock()
	defer s.mu.Unlock()
	apps, records := 0, 0
	for _, sl := range s.slots {
		if sl.set {
			apps++
			records += len(sl.models)
		}
	}
	c := NewCorpus(s.label, s.keepGraphs)
	c.Apps = make([]AppInfo, 0, apps)
	c.Records = make([]Record, 0, records)
	for _, sl := range s.slots {
		if !sl.set {
			continue
		}
		c.Apps = append(c.Apps, sl.info)
		for _, m := range sl.models {
			c.Records = append(c.Records, m.rec)
			c.count(m.rec, func() *Unique { return m.d.unique(s.keepGraphs) })
		}
	}
	return c
}

// appInfo summarises one app's extraction report.
func appInfo(category string, rep *extract.Report) AppInfo {
	info := AppInfo{
		Package:           rep.Package,
		Category:          category,
		HasModels:         len(rep.Models) > 0,
		HasMLLib:          rep.HasMLLibrary(),
		UsesNNAPI:         rep.UsesNNAPI,
		UsesXNNPACK:       rep.UsesXNNPACK,
		UsesSNPE:          rep.UsesSNPE,
		LazyModelDownload: rep.LazyModelDownload,
		OnDeviceTraining:  rep.OnDeviceTraining,
		FailedValidations: len(rep.FailedValidation),
	}
	seenAPI := map[string]bool{}
	for _, d := range rep.CloudAPIs {
		if !seenAPI[d.API] {
			seenAPI[d.API] = true
			info.CloudAPIs = append(info.CloudAPIs, d.API)
			switch d.Provider {
			case "google":
				info.UsesGoogleCloud = true
			case "aws":
				info.UsesAWSCloud = true
			}
		}
	}
	sort.Strings(info.CloudAPIs)
	return info
}

// unique materialises a corpus-owned Unique from shared per-checksum data;
// Corpus.count sets its checksum, framework and instance count.
func (d *uniqueData) unique(keepGraphs bool) *Unique {
	u := &Unique{
		Name:      d.name,
		Task:      d.task,
		Arch:      d.arch,
		Modality:  d.modality,
		Profile:   d.profile,
		LayerSums: d.layerSums,
		Weights:   d.weights,
	}
	if keepGraphs {
		u.Graph = d.graph
	}
	return u
}

// Package analysis implements gaugeNN's offline model analysis (Sections
// 4 and 6): checksum-based uniqueness and fine-tuning detection, the
// three-vote task classification, layer-composition and FLOPs/parameter
// profiling, cross-snapshot churn, and the model-level optimisation scan.
package analysis

import (
	"context"
	"sort"
	"sync"

	"github.com/gaugenn/gaugenn/internal/extract"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
)

// Record is one model instance (one file in one app).
type Record struct {
	Package   string
	Category  string
	Path      string
	Framework string
	Checksum  graph.Checksum
	FileBytes int
}

// Unique holds everything computed once per distinct model checksum.
type Unique struct {
	Checksum  graph.Checksum
	Name      string
	Framework string
	Task      zoo.Task
	// Arch is the fingerprinted architecture family (Section 4.5).
	Arch     zoo.Arch
	Modality graph.Modality
	Profile  *graph.Profile
	// LayerSums holds per-layer checksums of weighted layers only, the
	// input to the fine-tuning analysis.
	LayerSums []graph.Checksum
	Weights   graph.WeightStats
	// Instances counts how many records share this checksum.
	Instances int
	// Graph is retained when the corpus is built with KeepGraphs, for
	// on-device benchmarking.
	Graph *graph.Graph
}

// AppInfo summarises the ML signals of one app.
type AppInfo struct {
	Package   string
	Category  string
	HasModels bool
	HasMLLib  bool
	CloudAPIs []string
	// Provider flags derived from CloudAPIs.
	UsesGoogleCloud, UsesAWSCloud    bool
	UsesNNAPI, UsesXNNPACK, UsesSNPE bool
	LazyModelDownload                bool
	// OnDeviceTraining marks TFLiteTransferConverter-style traces.
	OnDeviceTraining  bool
	FailedValidations int
}

// Corpus is a full snapshot's analysis input: per-instance records plus
// per-unique decoded data.
//
// AddReport and AddApp are safe for concurrent use; the read-side methods
// (Dataset, TaskBreakdown, ...) assume ingestion has completed, matching
// the pipeline's ingest-then-analyse phases. SortedUniques and
// InstancesSharedAcrossApps are memoised; the memos are invalidated by
// ingestion.
type Corpus struct {
	Label   string
	Records []Record
	Uniques map[graph.Checksum]*Unique
	Apps    []AppInfo
	// KeepGraphs controls whether decoded graphs are retained on Uniques.
	KeepGraphs bool

	// cache backs per-checksum analysis; shared caches (see UniqueCache)
	// let shards and snapshots skip re-profiling duplicate checksums.
	cache *UniqueCache

	mu sync.Mutex
	// sortedUniques memoises SortedUniques between ingests.
	sortedUniques []*Unique
	// appsPerSum/recordsPerSum/sharedRecords maintain the
	// InstancesSharedAcrossApps index incrementally, replacing the O(n)
	// map rebuild the method previously performed per call.
	// indexedRecords counts how many of c.Records the index has seen, so
	// records appended directly (test fixtures) trigger a rebuild instead
	// of silently skewing the fraction.
	appsPerSum     map[graph.Checksum]map[string]struct{}
	recordsPerSum  map[graph.Checksum]int
	sharedRecords  int
	indexedRecords int
}

// NewCorpus creates an empty corpus with a private analysis cache.
func NewCorpus(label string, keepGraphs bool) *Corpus {
	return NewCorpusWithCache(label, keepGraphs, NewUniqueCache(keepGraphs))
}

// NewCorpusWithCache creates an empty corpus backed by a shared analysis
// cache, so duplicate checksums already profiled elsewhere (another shard,
// the other snapshot) are not re-profiled.
func NewCorpusWithCache(label string, keepGraphs bool, cache *UniqueCache) *Corpus {
	return &Corpus{
		Label:         label,
		Uniques:       map[graph.Checksum]*Unique{},
		KeepGraphs:    keepGraphs,
		cache:         cache,
		appsPerSum:    map[graph.Checksum]map[string]struct{}{},
		recordsPerSum: map[graph.Checksum]int{},
	}
}

// AddApp ingests an app summary without an extraction report (the fast
// path for apps with no ML signals).
func (c *Corpus) AddApp(info AppInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Apps = append(c.Apps, info)
}

// AddReport ingests one app's extraction report, profiling and classifying
// any model checksum seen for the first time (across every corpus sharing
// this corpus' cache). ctx bounds the per-checksum single-flight analysis
// (see UniqueCache.get for the cancellation contract).
func (c *Corpus) AddReport(ctx context.Context, category string, rep *extract.Report) error {
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

	// Per-checksum analysis runs outside the corpus lock: the cache is
	// single-flight, so concurrent ingesters never duplicate the work and
	// the corpus stays unlocked during the expensive profiling.
	type modelData struct {
		m extract.Model
		d *uniqueData
	}
	cache := c.uniqueCache()
	datas := make([]modelData, 0, len(rep.Models))
	for _, m := range rep.Models {
		d, err := cache.get(ctx, m)
		if err != nil {
			return err
		}
		datas = append(datas, modelData{m, d})
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.Apps = append(c.Apps, info)
	for _, md := range datas {
		m, d := md.m, md.d
		r := Record{
			Package:   rep.Package,
			Category:  category,
			Path:      m.Path,
			Framework: m.Framework,
			Checksum:  m.Checksum,
			FileBytes: m.FileBytes,
		}
		c.Records = append(c.Records, r)
		c.noteRecordLocked(r)
		u, ok := c.Uniques[m.Checksum]
		if !ok {
			u = newUnique(m.Checksum, m.Framework, d, c.KeepGraphs)
			c.Uniques[m.Checksum] = u
		}
		u.Instances++
	}
	c.sortedUniques = nil
	return nil
}

func (c *Corpus) uniqueCache() *UniqueCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cache == nil {
		// Corpora constructed as bare literals (tests) lazily get a
		// private cache.
		c.cache = NewUniqueCache(c.KeepGraphs)
	}
	return c.cache
}

// newUnique materialises a corpus-owned Unique from shared per-checksum
// data plus the (record-level, since tflite+dlc twins share checksums)
// framework. Instances starts at zero; callers count it per record.
func newUnique(sum graph.Checksum, framework string, d *uniqueData, keepGraphs bool) *Unique {
	u := &Unique{
		Checksum:  sum,
		Name:      d.name,
		Framework: framework,
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

// noteRecordLocked maintains the shared-instances index. Callers hold c.mu.
func (c *Corpus) noteRecordLocked(r Record) {
	if c.appsPerSum == nil {
		// Bare-literal corpora (tests) skip the constructors.
		c.appsPerSum = map[graph.Checksum]map[string]struct{}{}
		c.recordsPerSum = map[graph.Checksum]int{}
	}
	set := c.appsPerSum[r.Checksum]
	if set == nil {
		set = map[string]struct{}{}
		c.appsPerSum[r.Checksum] = set
	}
	if _, ok := set[r.Package]; !ok {
		set[r.Package] = struct{}{}
		if len(set) == 2 {
			// The checksum just became multi-app: every record already
			// ingested for it retroactively counts as shared.
			c.sharedRecords += c.recordsPerSum[r.Checksum]
		}
	}
	c.recordsPerSum[r.Checksum]++
	if len(set) >= 2 {
		c.sharedRecords++
	}
	c.indexedRecords++
}

// TotalModels returns the instance count (Table 2's "Total models").
func (c *Corpus) TotalModels() int { return len(c.Records) }

// UniqueModels returns the distinct checksum count (Table 2's "Unique
// models").
func (c *Corpus) UniqueModels() int { return len(c.Uniques) }

// AppsWithModels counts apps shipping at least one validated model.
func (c *Corpus) AppsWithModels() int {
	n := 0
	for _, a := range c.Apps {
		if a.HasModels {
			n++
		}
	}
	return n
}

// AppsWithFrameworks counts apps with any ML library signal (Table 2's
// "Apps w/ frameworks"), which includes apps whose models are encrypted or
// downloaded out of band.
func (c *Corpus) AppsWithFrameworks() int {
	n := 0
	for _, a := range c.Apps {
		if a.HasMLLib || a.HasModels {
			n++
		}
	}
	return n
}

// SortedUniques returns uniques ordered by checksum for deterministic
// iteration. The slice is memoised between ingests; callers must not
// mutate it.
func (c *Corpus) SortedUniques() []*Unique {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sortedUniques == nil {
		out := make([]*Unique, 0, len(c.Uniques))
		for _, u := range c.Uniques {
			out = append(out, u)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Checksum < out[j].Checksum })
		c.sortedUniques = out
	}
	return c.sortedUniques
}

// InstancesSharedAcrossApps returns the fraction of model instances whose
// checksum appears in two or more apps — the paper's "close to 80.9% of
// the models are shared across two or more applications". The underlying
// index is maintained incrementally at ingest time, so this is O(1).
func (c *Corpus) InstancesSharedAcrossApps() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.Records) == 0 {
		return 0
	}
	if c.indexedRecords != len(c.Records) {
		// Records were inserted directly (test fixtures, possibly mixed
		// with AddReport calls); rebuild the index from scratch.
		c.appsPerSum = map[graph.Checksum]map[string]struct{}{}
		c.recordsPerSum = map[graph.Checksum]int{}
		c.sharedRecords = 0
		c.indexedRecords = 0
		for _, r := range c.Records {
			c.noteRecordLocked(r)
		}
	}
	return float64(c.sharedRecords) / float64(len(c.Records))
}

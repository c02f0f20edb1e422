// Package analysis implements gaugeNN's offline model analysis (Sections
// 4 and 6): checksum-based uniqueness and fine-tuning detection, the
// three-vote task classification, layer-composition and FLOPs/parameter
// profiling, cross-snapshot churn, and the model-level optimisation scan.
package analysis

import (
	"sort"
	"sync"

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
// per-unique decoded data. A corpus is built once, by ShardedCorpus.Merge
// or DecodeCorpus, and then only read; both derive its uniques from its
// records by one rule (see count). SortedUniques is memoised.
type Corpus struct {
	Label   string
	Records []Record
	Uniques map[graph.Checksum]*Unique
	Apps    []AppInfo
	// KeepGraphs controls whether decoded graphs are retained on Uniques.
	KeepGraphs bool

	mu sync.Mutex
	// sortedUniques memoises SortedUniques.
	sortedUniques []*Unique
}

// NewCorpus creates an empty corpus.
func NewCorpus(label string, keepGraphs bool) *Corpus {
	return &Corpus{Label: label, Uniques: map[graph.Checksum]*Unique{}, KeepGraphs: keepGraphs}
}

// count applies the one rule by which a corpus derives its uniques from
// its records, called for each record in record order: the checksum's
// first record creates its Unique with fresh and gives it its checksum and
// framework (tflite+dlc twins ship one checksum under several formats);
// every record counts one instance.
func (c *Corpus) count(r Record, fresh func() *Unique) {
	u := c.Uniques[r.Checksum]
	if u == nil {
		u = fresh()
		u.Checksum, u.Framework = r.Checksum, r.Framework
		c.Uniques[r.Checksum] = u
	}
	u.Instances++
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
// iteration. The slice is memoised; callers must not mutate it.
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
// the models are shared across two or more applications".
func (c *Corpus) InstancesSharedAcrossApps() float64 {
	if len(c.Records) == 0 {
		return 0
	}
	firstApp := map[graph.Checksum]string{}
	multiApp := map[graph.Checksum]bool{}
	for _, r := range c.Records {
		if pkg, ok := firstApp[r.Checksum]; !ok {
			firstApp[r.Checksum] = r.Package
		} else if pkg != r.Package {
			multiApp[r.Checksum] = true
		}
	}
	shared := 0
	for _, r := range c.Records {
		if multiApp[r.Checksum] {
			shared++
		}
	}
	return float64(shared) / float64(len(c.Records))
}

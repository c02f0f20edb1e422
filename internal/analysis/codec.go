package analysis

import (
	"encoding/json"
	"fmt"

	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
)

// corpusWire is the persisted snapshot of a fully-ingested Corpus: apps
// and records in their deterministic global order, uniques sorted by
// checksum. Field order is fixed and every map in the payload is either
// absent or has integer-stable key ordering (encoding/json sorts map
// keys), so equal corpora encode to equal bytes and save→load→save is
// byte-stable — the property the warm/cold identity gates compare.
type corpusWire struct {
	V          int          `json:"v"`
	Label      string       `json:"label"`
	KeepGraphs bool         `json:"keep_graphs"`
	Apps       []AppInfo    `json:"apps,omitempty"`
	Records    []Record     `json:"records,omitempty"`
	Uniques    []uniqueWire `json:"uniques,omitempty"`
}

// uniqueWire deliberately carries no graph: decoded graphs live in the
// store's graph CAS keyed by this same checksum (read back by keepGraphs
// warm runs and `gaugenn exec -checksum`), so corpus snapshots stay small
// and re-encoding one costs no weight-byte traffic.
type uniqueWire struct {
	Checksum  graph.Checksum    `json:"checksum"`
	Name      string            `json:"name"`
	Framework string            `json:"framework"`
	Task      uint8             `json:"task"`
	Arch      uint8             `json:"arch"`
	Modality  uint8             `json:"modality"`
	Profile   *graph.Profile    `json:"profile"`
	LayerSums []graph.Checksum  `json:"layer_sums,omitempty"`
	Weights   graph.WeightStats `json:"weights"`
	Instances int               `json:"instances"`
}

// EncodeCorpus serialises a fully-ingested corpus deterministically.
// Callers must not be mid-ingest (the same read-side contract as the
// report methods).
func EncodeCorpus(c *Corpus) ([]byte, error) {
	w := corpusWire{
		V:          persistCodecVersion,
		Label:      c.Label,
		KeepGraphs: c.KeepGraphs,
		Apps:       c.Apps,
		Records:    c.Records,
	}
	for _, u := range c.SortedUniques() {
		w.Uniques = append(w.Uniques, uniqueWire{
			Checksum:  u.Checksum,
			Name:      u.Name,
			Framework: u.Framework,
			Task:      uint8(u.Task),
			Arch:      uint8(u.Arch),
			Modality:  uint8(u.Modality),
			Profile:   u.Profile,
			LayerSums: u.LayerSums,
			Weights:   u.Weights,
			Instances: u.Instances,
		})
	}
	return json.Marshal(w)
}

// DecodeCorpus reverses EncodeCorpus. It derives the uniques from the
// blob's records by the rule Merge builds them with (Corpus.count) and
// rejects a blob whose stored uniques disagree: a record whose checksum
// has no unique, a unique no record names, or a stored framework or
// instance count other than its records give.
func DecodeCorpus(data []byte) (*Corpus, error) {
	var w corpusWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("analysis: decoding corpus: %w", err)
	}
	if w.V != persistCodecVersion {
		return nil, fmt.Errorf("analysis: corpus codec version %d, want %d", w.V, persistCodecVersion)
	}
	stored := make(map[graph.Checksum]*uniqueWire, len(w.Uniques))
	for i := range w.Uniques {
		uw := &w.Uniques[i]
		if uw.Profile == nil {
			return nil, fmt.Errorf("analysis: corpus unique %s has no profile", uw.Checksum)
		}
		if stored[uw.Checksum] != nil {
			return nil, fmt.Errorf("analysis: corpus unique %s is stored twice", uw.Checksum)
		}
		stored[uw.Checksum] = uw
	}
	c := NewCorpus(w.Label, w.KeepGraphs)
	c.Apps = w.Apps
	c.Records = w.Records
	for _, r := range w.Records {
		uw := stored[r.Checksum]
		if uw == nil {
			return nil, fmt.Errorf("analysis: corpus record %s in %s names no stored unique", r.Checksum, r.Package)
		}
		c.count(r, uw.unique)
	}
	for _, uw := range w.Uniques {
		u := c.Uniques[uw.Checksum]
		if u == nil {
			return nil, fmt.Errorf("analysis: corpus unique %s is named by no record", uw.Checksum)
		}
		if u.Framework != uw.Framework || u.Instances != uw.Instances {
			return nil, fmt.Errorf("analysis: corpus unique %s stores %s x%d, its records give %s x%d",
				uw.Checksum, uw.Framework, uw.Instances, u.Framework, u.Instances)
		}
	}
	return c, nil
}

// unique rebuilds the Unique this entry stores, but for the fields
// Corpus.count derives from records.
func (uw *uniqueWire) unique() *Unique {
	return &Unique{
		Name:      uw.Name,
		Task:      zoo.TaskFromCode(uw.Task),
		Arch:      zoo.ArchFromCode(uw.Arch),
		Modality:  graph.Modality(uw.Modality),
		Profile:   uw.Profile,
		LayerSums: uw.LayerSums,
		Weights:   uw.Weights,
	}
}

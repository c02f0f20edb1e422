package analysis

import (
	"fmt"

	"github.com/gaugenn/gaugenn/internal/extract"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
	"github.com/gaugenn/gaugenn/internal/store"
)

// persistCodecVersion gates every persisted analysis-side record (payload
// outcomes, analysis records, corpus snapshots). Records written under a
// different version are treated as cache misses and recomputed — enum
// codes (task, arch, modality, op types) are persisted numerically, so any
// renumbering must bump this. See docs/persistence.md for the rules.
// Version 2 sealed payload and analysis records (store.SealJSON): their
// keys hash the model/payload, not the record bytes, so each blob carries
// its own integrity digest.
const persistCodecVersion = 2

// payloadRecord is the persisted outcome of one payload-hash decode: either
// the payload failed validation (OK false), or it decoded to the model
// identified by Checksum, whose analysis record lives in the same store.
type payloadRecord struct {
	V        int            `json:"v"`
	OK       bool           `json:"ok"`
	Checksum graph.Checksum `json:"checksum,omitempty"`
}

// analysisWire is the persisted form of uniqueData — everything derived
// once per distinct model checksum. The decoded graph is not embedded:
// it lives as a sibling blob under store.KindGraph at the same checksum
// key (compact binary codec, raw weight bytes), flagged here by HasGraph,
// so report-table queries and keepGraphs=false warm runs never touch
// weight bytes at all.
type analysisWire struct {
	V         int               `json:"v"`
	Name      string            `json:"name"`
	Task      uint8             `json:"task"`
	Arch      uint8             `json:"arch"`
	Modality  uint8             `json:"modality"`
	Profile   *graph.Profile    `json:"profile"`
	LayerSums []graph.Checksum  `json:"layer_sums,omitempty"`
	Weights   graph.WeightStats `json:"weights"`
	HasGraph  bool              `json:"has_graph,omitempty"`
}

func payloadKey(h extract.PayloadHash) string { return store.HexKey(h[:]) }

// checksumKey validates that a model checksum is usable as a store key
// (hex md5 by construction; anything else would be a corrupted report).
func checksumKey(sum graph.Checksum) string { return string(sum) }

// loadPayloadRecord reads one payload hash's persisted decode outcome.
func (uc *UniqueCache) loadPayloadRecord(h extract.PayloadHash) (payloadOutcome, bool) {
	var rec payloadRecord
	data, ok, err := uc.st.Get(store.KindPayload, payloadKey(h))
	if err != nil || !ok {
		return payloadOutcome{}, false
	}
	if store.OpenJSON(data, &rec) != nil || rec.V != persistCodecVersion {
		return payloadOutcome{}, false
	}
	if !rec.OK {
		return payloadOutcome{}, true
	}
	return payloadOutcome{sum: rec.Checksum, ok: true}, validChecksum(rec.Checksum)
}

func (uc *UniqueCache) persistPayloadRecord(h extract.PayloadHash, rec payloadRecord) {
	if uc.st == nil {
		return
	}
	data, err := store.SealJSON(rec)
	if err == nil {
		err = uc.st.Put(store.KindPayload, payloadKey(h), data)
	}
	uc.notePersistErr(err)
}

// loadAnalysisRecord rebuilds uniqueData from a persisted record under
// the current codec and counts the warm hit. The graph is only
// materialised when the cache keeps graphs, and a graph blob that is
// missing or fails its checksum makes the whole record a miss. Every miss
// returns errMiss.
func (uc *UniqueCache) loadAnalysisRecord(sum graph.Checksum) (*uniqueData, error) {
	if !validChecksum(sum) {
		return nil, errMiss
	}
	data, ok, err := uc.st.Get(store.KindAnalysis, checksumKey(sum))
	if err != nil || !ok {
		return nil, errMiss
	}
	var w analysisWire
	if store.OpenJSON(data, &w) != nil || w.V != persistCodecVersion || w.Profile == nil {
		return nil, errMiss
	}
	d := &uniqueData{
		name:      w.Name,
		task:      zoo.TaskFromCode(w.Task),
		arch:      zoo.ArchFromCode(w.Arch),
		modality:  graph.Modality(w.Modality),
		profile:   w.Profile,
		layerSums: w.LayerSums,
		weights:   w.Weights,
	}
	if uc.keepGraphs && w.HasGraph {
		g, ok := loadGraphBlob(uc.st, sum)
		if !ok {
			return nil, errMiss
		}
		d.graph = g
	}
	uc.warmAnalyses.Add(1)
	metWarmAnalysisHits.Inc()
	return d, nil
}

// loadGraphBlob reads one checksum's decoded graph from the graph CAS.
// The key is the model checksum, so the blob authenticates against it,
// and its CRC-32 trailer covers the bytes the checksum does not
// (graph.DecodeStored): a decodable-but-corrupted graph is rejected here
// rather than silently benchmarked.
func loadGraphBlob(st *store.Store, sum graph.Checksum) (*graph.Graph, bool) {
	data, ok, err := st.Get(store.KindGraph, checksumKey(sum))
	if err != nil || !ok {
		return nil, false
	}
	g, err := graph.DecodeStored(data, sum)
	return g, err == nil
}

// persistAnalysisRecord writes one checksum's analysis through to the
// store. g is the decoded graph the analysis ran over — stored as a
// sibling binary blob so warm runs (and future workloads) have the full
// model without re-decoding; it may borrow weight bytes from a live APK
// buffer, which is safe to read here but never retained. The graph blob
// is written before the record that flags it, so a crash never leaves a
// record pointing at a missing graph.
func (uc *UniqueCache) persistAnalysisRecord(sum graph.Checksum, d *uniqueData, g *graph.Graph) {
	if uc.st == nil {
		return
	}
	if !validChecksum(sum) {
		uc.notePersistErr(fmt.Errorf("analysis: checksum %q is not a valid store key", sum))
		return
	}
	if g != nil {
		if err := uc.st.Put(store.KindGraph, checksumKey(sum), graph.EncodeStored(g)); err != nil {
			uc.notePersistErr(err)
			return
		}
	}
	w := analysisWire{
		V:         persistCodecVersion,
		Name:      d.name,
		Task:      uint8(d.task),
		Arch:      uint8(d.arch),
		Modality:  uint8(d.modality),
		Profile:   d.profile,
		LayerSums: d.layerSums,
		Weights:   d.weights,
		HasGraph:  g != nil,
	}
	data, err := store.SealJSON(w)
	if err == nil {
		err = uc.st.Put(store.KindAnalysis, checksumKey(sum), data)
	}
	uc.notePersistErr(err)
}

// ValidateAnalysisRecord reports whether data is a well-formed analysis
// record under the current codec: seal intact, version current, profile
// present. fsck uses it to find records a warm run would have to discard.
func ValidateAnalysisRecord(data []byte) error {
	var w analysisWire
	if err := store.OpenJSON(data, &w); err != nil {
		return err
	}
	if w.V != persistCodecVersion {
		return fmt.Errorf("analysis: record codec version %d, want %d", w.V, persistCodecVersion)
	}
	if w.Profile == nil {
		return fmt.Errorf("analysis: record has no profile")
	}
	return nil
}

// ValidatePayloadRecord reports whether data is a well-formed payload
// decode outcome under the current codec.
func ValidatePayloadRecord(data []byte) error {
	var rec payloadRecord
	if err := store.OpenJSON(data, &rec); err != nil {
		return err
	}
	if rec.V != persistCodecVersion {
		return fmt.Errorf("analysis: payload record codec version %d, want %d", rec.V, persistCodecVersion)
	}
	if rec.OK && !validChecksum(rec.Checksum) {
		return fmt.Errorf("analysis: payload record references invalid checksum %q", rec.Checksum)
	}
	return nil
}

func validChecksum(sum graph.Checksum) bool {
	if len(sum) != 32 {
		return false
	}
	for i := 0; i < len(sum); i++ {
		c := sum[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ModelSummary is the serve API's per-model lookup view of a persisted
// analysis record.
type ModelSummary struct {
	Checksum       graph.Checksum `json:"checksum"`
	Name           string         `json:"name"`
	Task           string         `json:"task"`
	Arch           string         `json:"arch"`
	Modality       string         `json:"modality"`
	FLOPs          int64          `json:"flops"`
	Params         int64          `json:"params"`
	WeightBytes    int64          `json:"weight_bytes"`
	Layers         int            `json:"layers"`
	WeightedLayers int            `json:"weighted_layers"`
	HasGraph       bool           `json:"has_graph"`
}

// LoadModelSummary reads one checksum's persisted analysis record and
// summarises it for query APIs. ok is false when the checksum is unknown.
func LoadModelSummary(st *store.Store, sum graph.Checksum) (*ModelSummary, bool, error) {
	if !validChecksum(sum) {
		return nil, false, nil
	}
	data, ok, err := st.Get(store.KindAnalysis, checksumKey(sum))
	if err != nil || !ok {
		return nil, false, err
	}
	var w analysisWire
	if err := store.OpenJSON(data, &w); err != nil {
		return nil, false, fmt.Errorf("analysis: decoding record %s: %w", sum, err)
	}
	if w.V != persistCodecVersion || w.Profile == nil {
		return nil, false, fmt.Errorf("analysis: record %s has codec version %d, want %d", sum, w.V, persistCodecVersion)
	}
	return &ModelSummary{
		Checksum:       sum,
		Name:           w.Name,
		Task:           zoo.TaskFromCode(w.Task).String(),
		Arch:           zoo.ArchFromCode(w.Arch).String(),
		Modality:       graph.Modality(w.Modality).String(),
		FLOPs:          w.Profile.FLOPs,
		Params:         w.Profile.Params,
		WeightBytes:    w.Profile.WeightBytes,
		Layers:         len(w.Profile.Layers),
		WeightedLayers: len(w.LayerSums),
		HasGraph:       w.HasGraph,
	}, true, nil
}

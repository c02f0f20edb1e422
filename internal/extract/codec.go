package extract

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"github.com/gaugenn/gaugenn/internal/cloudml"
	"github.com/gaugenn/gaugenn/internal/errs"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/store"
)

// reportCodecVersion is bumped whenever the wire layout (or the meaning of
// any persisted field) changes; stored reports from other versions are
// treated as cache misses and re-extracted, never migrated. Version 2
// sealed the record (see store.SealJSON): report keys hash the APK, not
// the report bytes, so the blob carries its own integrity digest. The
// report key's move from md5 over the whole APK to the sha256 entry walk
// (APK.Key) left the layout as it was: an old report sits under a key no
// new APK hashes to.
const reportCodecVersion = 2

// reportWire is the persisted form of a Report. Decoded graphs are
// deliberately absent: a persisted model row carries only its checksum,
// which keys the per-checksum analysis record in the same store — exactly
// the shape cache-backed extraction produces in memory (Model.Graph nil).
type reportWire struct {
	V                int                 `json:"v"`
	Package          string              `json:"package"`
	Models           []modelWire         `json:"models,omitempty"`
	CandidateFiles   int                 `json:"candidate_files,omitempty"`
	FailedValidation []string            `json:"failed_validation,omitempty"`
	Frameworks       []string            `json:"frameworks,omitempty"`
	CloudAPIs        []cloudml.Detection `json:"cloud_apis,omitempty"`
	UsesNNAPI        bool                `json:"uses_nnapi,omitempty"`
	UsesXNNPACK      bool                `json:"uses_xnnpack,omitempty"`
	UsesSNPE         bool                `json:"uses_snpe,omitempty"`
	LazyModelDown    bool                `json:"lazy_model_download,omitempty"`
	OnDeviceTraining bool                `json:"on_device_training,omitempty"`
}

type modelWire struct {
	Path      string         `json:"path"`
	Framework string         `json:"framework"`
	Checksum  graph.Checksum `json:"checksum"`
	FileBytes int            `json:"file_bytes"`
}

// EncodeReport serialises a report for the study store. The encoding is
// deterministic (fixed field order, no maps beyond sorted slices the
// extractor already produces), so equal reports encode to equal bytes.
// Models' decoded graphs are not persisted; their analysis lives under the
// checksum key in the analysis CAS.
func EncodeReport(r *Report) ([]byte, error) {
	w := reportWire{
		V:                reportCodecVersion,
		Package:          r.Package,
		CandidateFiles:   r.CandidateFiles,
		FailedValidation: r.FailedValidation,
		Frameworks:       r.Frameworks,
		CloudAPIs:        r.CloudAPIs,
		UsesNNAPI:        r.UsesNNAPI,
		UsesXNNPACK:      r.UsesXNNPACK,
		UsesSNPE:         r.UsesSNPE,
		LazyModelDown:    r.LazyModelDownload,
		OnDeviceTraining: r.OnDeviceTraining,
	}
	for _, m := range r.Models {
		w.Models = append(w.Models, modelWire{
			Path: m.Path, Framework: m.Framework, Checksum: m.Checksum, FileBytes: m.FileBytes,
		})
	}
	return store.SealJSON(w)
}

// DecodeReport reverses EncodeReport. Reports written by a different codec
// version — or whose seal no longer verifies — fail to decode; callers
// treat that as a cache miss and re-extract rather than trusting a stale
// or corrupted record.
func DecodeReport(data []byte) (*Report, error) {
	var w reportWire
	if err := store.OpenJSON(data, &w); err != nil {
		return nil, fmt.Errorf("extract: decoding report: %w", err)
	}
	if w.V != reportCodecVersion {
		return nil, fmt.Errorf("extract: report codec version %d, want %d", w.V, reportCodecVersion)
	}
	r := &Report{
		Package:           w.Package,
		CandidateFiles:    w.CandidateFiles,
		FailedValidation:  w.FailedValidation,
		Frameworks:        w.Frameworks,
		CloudAPIs:         w.CloudAPIs,
		UsesNNAPI:         w.UsesNNAPI,
		UsesXNNPACK:       w.UsesXNNPACK,
		UsesSNPE:          w.UsesSNPE,
		LazyModelDownload: w.LazyModelDown,
		OnDeviceTraining:  w.OnDeviceTraining,
	}
	for _, m := range w.Models {
		r.Models = append(r.Models, Model{
			Path: m.Path, Framework: m.Framework, Checksum: m.Checksum, FileBytes: m.FileBytes,
		})
	}
	return r, nil
}

// apkRecordCodecVersion versions the APK record wire layout; a record of
// another version is corrupt to its reader, which rebuilds instead.
// Version 2 added failed packagings; it also retired the records that map
// recipes to md5 report keys, which no report is stored under any more.
const apkRecordCodecVersion = 2

// APKRecord is what packaging each APK recipe (hex
// playstore.Snapshot.APKRecipe) of a study snapshot gave. Core keeps one
// per study snapshot under store.KindAPK, so a warm run loads an app's
// report without building or hashing its APK. BuildAPK is a pure function
// of the recipe, so a recipe whose packaging failed fails again: a warm
// run reports the recorded error instead of building the APK to see it.
type APKRecord struct {
	// Keys maps a recipe to the report key (hex APK.Key) of the APK it
	// packaged to.
	Keys map[string]string
	// Failed maps a recipe whose packaging failed to the error's text.
	Failed map[string]string
}

// NewAPKRecord returns an empty record.
func NewAPKRecord() APKRecord {
	return APKRecord{Keys: map[string]string{}, Failed: map[string]string{}}
}

type apkRecordWire struct {
	V      int               `json:"v"`
	APKs   map[string]string `json:"apks"`
	Failed map[string]string `json:"failed,omitempty"`
}

// EncodeAPKRecord seals a record for the store. Map keys marshal sorted,
// so equal records encode to equal bytes.
func EncodeAPKRecord(r APKRecord) ([]byte, error) {
	return store.SealJSON(apkRecordWire{V: apkRecordCodecVersion, APKs: r.Keys, Failed: r.Failed})
}

// DecodeAPKRecord reverses EncodeAPKRecord. Every rejection — a broken
// seal, another codec version, a malformed body, a key that is not a
// lowercase hex digest of the right length, an empty error text or a
// recipe both packaged and failed — matches errs.ErrStoreCorrupt.
func DecodeAPKRecord(data []byte) (APKRecord, error) {
	var w apkRecordWire
	if err := store.OpenJSON(data, &w); err != nil {
		// A seal failure is already typed; a well-sealed body of the wrong
		// shape is not.
		if !errors.Is(err, errs.ErrStoreCorrupt) {
			err = fmt.Errorf("%w: %v", errs.ErrStoreCorrupt, err)
		}
		return APKRecord{}, fmt.Errorf("extract: decoding apk record: %w", err)
	}
	if w.V != apkRecordCodecVersion {
		return APKRecord{}, fmt.Errorf("extract: apk record codec version %d, want %d: %w", w.V, apkRecordCodecVersion, errs.ErrStoreCorrupt)
	}
	for recipe, key := range w.APKs {
		if !isHexDigest(recipe, sha256.Size) || !isHexDigest(key, len(PayloadHash{})) {
			return APKRecord{}, fmt.Errorf("extract: apk record maps %.16q to %.16q, want hex digests: %w", recipe, key, errs.ErrStoreCorrupt)
		}
	}
	for recipe, msg := range w.Failed {
		_, packaged := w.APKs[recipe]
		if !isHexDigest(recipe, sha256.Size) || msg == "" || packaged {
			return APKRecord{}, fmt.Errorf("extract: apk record fails %.16q with %.16q, want a hex digest of an unpackaged recipe and an error: %w", recipe, msg, errs.ErrStoreCorrupt)
		}
	}
	r := APKRecord{Keys: w.APKs, Failed: w.Failed}
	if r.Keys == nil {
		r.Keys = map[string]string{}
	}
	if r.Failed == nil {
		r.Failed = map[string]string{}
	}
	return r, nil
}

// isHexDigest reports whether s is exactly n bytes in lowercase hex, the
// form store.HexKey renders.
func isHexDigest(s string, n int) bool {
	if len(s) != 2*n {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/gaugenn/gaugenn/internal/analysis"
	"github.com/gaugenn/gaugenn/internal/store"
)

func cachedConfig(dir string, useHTTP bool) Config {
	cfg := DefaultConfig(77, 0.025)
	cfg.UseHTTP = useHTTP
	cfg.CacheDir = dir
	cfg.Resume = true
	return cfg
}

// TestRunStudyWarmRerunZeroDecodesByteIdentical is the acceptance gate for
// the persistent store: re-running an identical study against a populated
// cache dir must perform zero graph decodes and zero profiles, and produce
// corpora (and report tables) byte-identical to the cold run.
func TestRunStudyWarmRerunZeroDecodesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := cachedConfig(dir, false)

	cold, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Persist == nil {
		t.Fatal("CacheDir run must report persist stats")
	}
	if cold.Persist.Cache.Decodes == 0 || cold.Persist.ExtractedReports == 0 {
		t.Fatalf("cold run did no work: %+v", cold.Persist)
	}
	// Even a cold run may serve some reports warm: the two snapshots
	// share unchanged apps with byte-identical APKs, and a report one
	// snapshot persists is visible to the other mid-run.

	warm, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws := warm.Persist
	if ws.Cache.Decodes != 0 || ws.Cache.Profiles != 0 {
		t.Fatalf("warm run decoded/profiled: %+v", ws.Cache)
	}
	if ws.ExtractedReports != 0 {
		t.Fatalf("warm run extracted %d APKs", ws.ExtractedReports)
	}
	if ws.WarmReports != cold.Persist.ExtractedReports+cold.Persist.WarmReports {
		t.Fatalf("warm reports %d != cold's %d extracted + %d warm",
			ws.WarmReports, cold.Persist.ExtractedReports, cold.Persist.WarmReports)
	}

	// Corpora are byte-identical: same fingerprint, same tables, same CAS
	// keys (the CAS key is the sha256 of the encoded corpus).
	if !reflect.DeepEqual(fingerprint(t, cold), fingerprint(t, warm)) {
		t.Fatal("warm corpus fingerprint diverges from cold")
	}
	coldTables := StudyTables(cold.Corpus20, cold.Corpus21)
	warmTables := StudyTables(warm.Corpus20, warm.Corpus21)
	if !reflect.DeepEqual(coldTables, warmTables) {
		t.Fatal("warm report tables diverge from cold")
	}
	if !reflect.DeepEqual(cold.Persist.CorpusKeys, warm.Persist.CorpusKeys) {
		t.Fatalf("corpus CAS keys diverge: %v vs %v", cold.Persist.CorpusKeys, warm.Persist.CorpusKeys)
	}

	// The manifest deduplicates the identical re-run.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("manifest holds %d entries, want 1", len(entries))
	}
	if entries[0].ID != StudyID(cfg) || entries[0].Snapshots["2021"] != cold.Persist.CorpusKeys["2021"] {
		t.Fatalf("manifest entry mismatch: %+v", entries[0])
	}
	// And the persisted snapshots load back into working corpora.
	blob, ok, err := st.Get(store.KindCorpus, entries[0].Snapshots["2021"])
	if err != nil || !ok {
		t.Fatalf("corpus blob missing: ok=%v err=%v", ok, err)
	}
	loaded, err := analysis.DecodeCorpus(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Dataset(), cold.Corpus21.Dataset()) {
		t.Fatal("persisted corpus dataset diverges")
	}
}

// TestRunStudyWarmRerunHTTP runs the same gate through the realistic HTTP
// crawl path: the crawl still happens, but extraction and analysis are
// fully warm.
func TestRunStudyWarmRerunHTTP(t *testing.T) {
	dir := t.TempDir()
	cfg := cachedConfig(dir, true)
	cold, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Persist.Cache.Decodes != 0 || warm.Persist.ExtractedReports != 0 {
		t.Fatalf("warm HTTP run recomputed: %+v", warm.Persist)
	}
	if !reflect.DeepEqual(cold.Persist.CorpusKeys, warm.Persist.CorpusKeys) {
		t.Fatal("warm HTTP corpora diverge from cold")
	}
}

// TestRunStudyScaleUpIncremental checks the incremental re-analysis path:
// growing the study against a cache populated at a smaller scale must
// produce results byte-identical to a from-scratch run at the larger
// scale, re-deriving at most what a from-scratch run derives.
func TestRunStudyScaleUpIncremental(t *testing.T) {
	dir := t.TempDir()
	small := cachedConfig(dir, false)
	small.Scale = 0.02
	if _, err := Run(context.Background(), small); err != nil {
		t.Fatal(err)
	}
	grown := small
	grown.Scale = 0.04
	warm, err := Run(context.Background(), grown)
	if err != nil {
		t.Fatal(err)
	}
	scratch := grown
	scratch.CacheDir = t.TempDir()
	cold, err := Run(context.Background(), scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fingerprint(t, warm), fingerprint(t, cold)) {
		t.Fatal("scaled-up warm study diverges from a from-scratch run")
	}
	if !reflect.DeepEqual(warm.Persist.CorpusKeys, cold.Persist.CorpusKeys) {
		t.Fatal("scaled-up corpus snapshots diverge from a from-scratch run")
	}
	if warm.Persist.Cache.Decodes > cold.Persist.Cache.Decodes {
		t.Fatalf("warm scale-up decoded more (%d) than from scratch (%d)",
			warm.Persist.Cache.Decodes, cold.Persist.Cache.Decodes)
	}
	// Both studies now share the manifest, under distinct IDs.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	studies, err := st.Studies()
	if err != nil {
		t.Fatal(err)
	}
	if len(studies) != 2 {
		t.Fatalf("manifest lists %d studies, want 2", len(studies))
	}
}

// TestRunStudyHealsPoisonedStore simulates a store whose analysis records
// vanished (crashed writer mid-run, or a codec bump that invalidates them)
// while the reports that reference them survive: a resume run must refuse
// the dangling reports, re-extract, and still produce results identical to
// a healthy warm run — never fail with "no graph available".
func TestRunStudyHealsPoisonedStore(t *testing.T) {
	dir := t.TempDir()
	cfg := cachedConfig(dir, false)
	cold, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Poison: drop every analysis record but keep reports and payloads.
	if err := os.RemoveAll(filepath.Join(dir, "analysis")); err != nil {
		t.Fatal(err)
	}
	healed, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("poisoned store must self-heal, got: %v", err)
	}
	// Reports whose models cannot be resolved must re-extract (decodes and
	// extractions happen again); reports with no models — or whose analyses
	// an earlier app already re-persisted this run — may still serve warm.
	if healed.Persist.ExtractedReports == 0 || healed.Persist.Cache.Decodes == 0 {
		t.Fatalf("poisoned store served dangling reports warm: %+v", healed.Persist)
	}
	if !reflect.DeepEqual(cold.Persist.CorpusKeys, healed.Persist.CorpusKeys) {
		t.Fatal("healed run diverges from the original")
	}
	// The heal re-persisted everything: the next run is fully warm again.
	warm, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Persist.Cache.Decodes != 0 || warm.Persist.ExtractedReports != 0 {
		t.Fatalf("store not healed: %+v", warm.Persist)
	}
}

package fsck

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/gaugenn/gaugenn/internal/core"
	"github.com/gaugenn/gaugenn/internal/faults"
	"github.com/gaugenn/gaugenn/internal/store"
)

// The suite audits a real store populated by a real (small) study, then
// corrupts it with the same helpers the chaos tests use. Populating is
// expensive, so one seed store is built lazily and copied per test.
var (
	seedOnce sync.Once
	seedDir  string
	seedErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if seedDir != "" {
		os.RemoveAll(seedDir)
	}
	os.Exit(code)
}

func populatedStore(t *testing.T) string {
	t.Helper()
	seedOnce.Do(func() {
		seedDir, seedErr = os.MkdirTemp("", "fsck-seed-")
		if seedErr != nil {
			return
		}
		cfg := core.DefaultConfig(77, 0.02)
		cfg.CacheDir = seedDir
		cfg.Resume = true
		_, seedErr = core.Run(context.Background(), cfg)
	})
	if seedErr != nil {
		t.Fatalf("populating seed store: %v", seedErr)
	}
	dst := t.TempDir()
	copyTree(t, seedDir, dst)
	return dst
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatalf("copying store: %v", err)
	}
}

// firstBlob returns the path and key of the lexically first blob of kind.
func firstBlob(t *testing.T, dir, kind string) (path, key string) {
	t.Helper()
	shards, err := os.ReadDir(filepath.Join(dir, kind))
	if err != nil {
		t.Fatalf("store has no %s blobs: %v", kind, err)
	}
	for _, sh := range shards {
		blobs, err := os.ReadDir(filepath.Join(dir, kind, sh.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blobs {
			if !b.IsDir() {
				return filepath.Join(dir, kind, sh.Name(), b.Name()), b.Name()
			}
		}
	}
	t.Fatalf("store has no %s blobs", kind)
	return "", ""
}

func TestCleanStorePasses(t *testing.T) {
	dir := populatedStore(t)
	res, err := Run(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("fresh store reported issues: %v", res.Issues)
	}
	for _, kind := range []string{store.KindCorpus, store.KindReport, store.KindAnalysis, store.KindGraph, store.KindIndex} {
		if res.Scanned[kind] == 0 {
			t.Fatalf("scanned no %s blobs: %v", kind, res.Scanned)
		}
	}
	if res.ManifestEntries == 0 {
		t.Fatal("no manifest entries scanned")
	}
}

// TestCorruptionDetectFixRoundTrip corrupts one blob of every kind — a
// different corruption class per kind, covering all three helpers — then
// checks detect → fix (quarantine) → clean.
func TestCorruptionDetectFixRoundTrip(t *testing.T) {
	dir := populatedStore(t)
	corrupted := map[string]string{} // kind -> key
	corrupt := func(kind string, mangle func(path string) error) {
		path, key := firstBlob(t, dir, kind)
		if err := mangle(path); err != nil {
			t.Fatalf("corrupting %s/%s: %v", kind, key, err)
		}
		corrupted[kind] = key
	}
	corrupt(store.KindCorpus, func(p string) error { return faults.FlipBit(p, 11) })
	corrupt(store.KindReport, func(p string) error { return faults.FlipBit(p, 200) })
	corrupt(store.KindGraph, func(p string) error { return faults.Truncate(p, 0.5) })
	corrupt(store.KindAnalysis, func(p string) error { return faults.AppendGarbage(p, "{torn") })
	corrupt(store.KindPayload, func(p string) error { return faults.Truncate(p, 0.3) })
	corrupt(store.KindIndex, func(p string) error { return faults.FlipBit(p, 50) })

	audit, err := Run(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, is := range audit.Issues {
		if is.Fixed {
			t.Fatalf("audit-only pass claims a fix: %v", is)
		}
		if corrupted[is.Kind] == is.Key {
			found[is.Kind] = true
		} else {
			t.Fatalf("issue outside the corrupted set: %v", is)
		}
	}
	for kind, key := range corrupted {
		if !found[kind] {
			t.Fatalf("corruption of %s/%s went undetected; issues: %v", kind, key, audit.Issues)
		}
	}

	// Fix quarantines all six blobs. Quarantining the corpus blob leaves
	// the manifest's snapshot reference dangling — reported, never "fixed"
	// (the entry is true provenance; the blob is what's missing).
	fixed, err := Run(dir, Options{Fix: true})
	if err != nil {
		t.Fatal(err)
	}
	var dangling int
	for _, is := range fixed.Issues {
		if is.Kind == "manifest" {
			dangling++
			continue
		}
		if !is.Fixed {
			t.Fatalf("fix pass left issue unfixed: %v", is)
		}
		if _, err := os.Stat(filepath.Join(dir, "quarantine", is.Kind, is.Key)); err != nil {
			t.Fatalf("corrupt blob not quarantined: %v", err)
		}
	}
	if len(fixed.Issues)-dangling != len(audit.Issues) {
		t.Fatalf("fix pass fixed %d blob issues, audit found %d", len(fixed.Issues)-dangling, len(audit.Issues))
	}
	if dangling == 0 {
		t.Fatal("quarantined corpus blob must surface as a dangling manifest reference")
	}

	// The repaired store must warm-resume: quarantined records read as
	// misses and are recomputed (the deterministic corpus re-persists
	// under its old content key), not trusted.
	cfg := core.DefaultConfig(77, 0.02)
	cfg.CacheDir = dir
	cfg.Resume = true
	res, err := core.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("repaired store does not resume: %v", err)
	}
	if res.Persist == nil || res.Persist.WarmReports == 0 {
		t.Fatal("resume run served nothing warm")
	}

	clean, err := Run(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Clean() {
		t.Fatalf("store still dirty after fix + resume: %v", clean.Issues)
	}
}

func TestManifestTornTailAndGarbageRepair(t *testing.T) {
	dir := populatedStore(t)
	path := filepath.Join(dir, "manifest.jsonl")
	if err := faults.AppendGarbage(path, "{\"id\":\"zz\",\"seed\":9}\n{\"id\":\"torn"); err != nil {
		t.Fatal(err)
	}

	audit, err := Run(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var manifestIssue *Issue
	for i := range audit.Issues {
		if audit.Issues[i].Kind == "manifest" && audit.Issues[i].Key == "" {
			manifestIssue = &audit.Issues[i]
		}
	}
	if manifestIssue == nil {
		t.Fatalf("torn manifest went undetected: %v", audit.Issues)
	}
	if !strings.Contains(manifestIssue.Problem, "torn tail") {
		t.Fatalf("issue does not flag the torn tail: %v", *manifestIssue)
	}
	// The appended "zz" entry parses as JSON with an ID, so it survives
	// the repair (fsck keeps every valid line); only the torn tail is
	// dropped.
	want := audit.ManifestEntries

	if _, err := Run(dir, Options{Fix: true}); err != nil {
		t.Fatal(err)
	}
	repaired, err := Run(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, is := range repaired.Issues {
		if is.Kind == "manifest" && is.Key == "" {
			t.Fatalf("manifest still dirty after fix: %v", is)
		}
	}
	if repaired.ManifestEntries != want {
		t.Fatalf("repair changed valid entry count: %d != %d", repaired.ManifestEntries, want)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || raw[len(raw)-1] != '\n' {
		t.Fatal("repaired manifest does not end in a newline")
	}
	if strings.Contains(string(raw), "torn") {
		t.Fatal("torn tail survived repair")
	}
}

func TestRunRejectsMissingDir(t *testing.T) {
	if _, err := Run(filepath.Join(t.TempDir(), "nope"), Options{}); err == nil {
		t.Fatal("missing store dir must error")
	}
}

// TestAPKRecordCorruptionQuarantined covers the apk kind, which only the
// in-process path writes: a record with a flipped bit and one with a
// sealed but malformed body are both caught, quarantined by -fix, and
// written back whole by the next run.
func TestAPKRecordCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	cfg := core.DefaultConfig(77, 0.02)
	cfg.UseHTTP = false
	cfg.CacheDir = dir
	cfg.Resume = true
	if _, err := core.Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	res, err := Run(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() || res.Scanned[store.KindAPK] != 2 {
		t.Fatalf("fresh store: issues %v, scanned %d apk records", res.Issues, res.Scanned[store.KindAPK])
	}
	paths, err := filepath.Glob(filepath.Join(dir, store.KindAPK, "*", "*"))
	if err != nil || len(paths) != 2 {
		t.Fatalf("apk records: %v, %v", paths, err)
	}
	if err := faults.FlipBit(paths[0], 40); err != nil {
		t.Fatal(err)
	}
	badKeys, err := store.SealJSON(map[string]any{"v": 1, "apks": map[string]string{"zz": "not-a-key"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[1], badKeys, 0o644); err != nil {
		t.Fatal(err)
	}

	fixed, err := Run(dir, Options{Fix: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed.Issues) != 2 {
		t.Fatalf("want both apk records flagged, got %v", fixed.Issues)
	}
	for _, is := range fixed.Issues {
		if is.Kind != store.KindAPK || !is.Fixed {
			t.Fatalf("unexpected issue %v", is)
		}
		if _, err := os.Stat(filepath.Join(dir, "quarantine", is.Kind, is.Key)); err != nil {
			t.Fatalf("corrupt record not quarantined: %v", err)
		}
	}
	if _, err := core.Run(context.Background(), cfg); err != nil {
		t.Fatalf("repaired store does not resume: %v", err)
	}
	clean, err := Run(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Clean() || clean.Scanned[store.KindAPK] != 2 {
		t.Fatalf("after resume: issues %v, scanned %d apk records", clean.Issues, clean.Scanned[store.KindAPK])
	}
}

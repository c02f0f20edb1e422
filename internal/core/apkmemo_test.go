package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/gaugenn/gaugenn/internal/extract"
	"github.com/gaugenn/gaugenn/internal/store"
)

// apkTraffic counts reads and writes of apk records beneath a store.
type apkTraffic struct {
	store.FS
	reads, writes atomic.Int64
}

func isAPKBlob(name string) bool {
	return filepath.Base(filepath.Dir(filepath.Dir(name))) == store.KindAPK
}

func (f *apkTraffic) ReadFile(name string) ([]byte, error) {
	if isAPKBlob(name) {
		f.reads.Add(1)
	}
	return f.FS.ReadFile(name)
}

func (f *apkTraffic) WriteFileAtomic(name string, data []byte) error {
	if isAPKBlob(name) {
		f.writes.Add(1)
	}
	return f.FS.WriteFileAtomic(name, data)
}

// runCounted runs cfg on a fresh traffic counter.
func runCounted(t *testing.T, cfg Config) (*StudyResult, *apkTraffic) {
	t.Helper()
	fs := &apkTraffic{FS: store.OSFS{}}
	cfg.StoreFS = fs
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, fs
}

// extractable counts the apps of both snapshots the in-process path
// packages and extracts.
func extractable(res *StudyResult) int64 {
	var n int64
	for _, a := range append(res.Store.Snap20.Apps, res.Store.Snap21.Apps...) {
		if needsExtraction(a) {
			n++
		}
	}
	return n
}

// apkRecords lists the paths of a store's apk records.
func apkRecords(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, store.KindAPK, "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	return paths
}

// TestAPKMemoWarmRerunPackagesNothing pins the memo's counts: a cold
// study writes one apk record per snapshot; an identical warm re-run
// builds and hashes no APK, extracts nothing, serves every extractable
// app's report warm, writes no record and persists the same corpora.
func TestAPKMemoWarmRerunPackagesNothing(t *testing.T) {
	dir := t.TempDir()
	cfg := cachedConfig(dir, false)
	cold, coldFS := runCounted(t, cfg)
	want := extractable(cold)
	if cold.Persist.Packaged != want {
		t.Fatalf("cold run packaged %d APKs, want %d", cold.Persist.Packaged, want)
	}
	if n := coldFS.writes.Load(); n != 2 {
		t.Fatalf("cold run wrote %d apk records, want 2", n)
	}
	if n := len(apkRecords(t, dir)); n != 2 {
		t.Fatalf("store holds %d apk records, want 2", n)
	}

	warm, warmFS := runCounted(t, cfg)
	ws := warm.Persist
	if ws.Packaged != 0 || ws.ExtractedReports != 0 {
		t.Fatalf("warm run packaged %d and extracted %d APKs", ws.Packaged, ws.ExtractedReports)
	}
	if ws.WarmReports != want {
		t.Fatalf("warm run served %d reports warm, want %d", ws.WarmReports, want)
	}
	if n := warmFS.writes.Load(); n != 0 {
		t.Fatalf("identical warm run rewrote %d apk records", n)
	}
	if !reflect.DeepEqual(cold.Persist.CorpusKeys, ws.CorpusKeys) {
		t.Fatalf("corpus keys diverge: %v vs %v", cold.Persist.CorpusKeys, ws.CorpusKeys)
	}
}

// TestAPKMemoFallsBackOnBadRecords damages the records three ways — gone,
// corrupt, and pointing each recipe at another app's report — and checks
// that every app then rebuilds and re-hashes, the corpora stay identical,
// and the run writes the records back whole.
func TestAPKMemoFallsBackOnBadRecords(t *testing.T) {
	dir := t.TempDir()
	cfg := cachedConfig(dir, false)
	cold, _ := runCounted(t, cfg)
	want := extractable(cold)
	damage := []struct {
		name  string
		apply func(path string) error
	}{
		{"absent", os.Remove},
		{"corrupt", func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[len(data)/2] ^= 0x10
			return os.WriteFile(path, data, 0o644)
		}},
		{"another package", func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rec, err := extract.DecodeAPKRecord(data)
			if err != nil {
				return err
			}
			// Rotate the report keys one recipe along: every entry still
			// names a persisted, resolvable report, of the wrong app.
			var recipes, keys []string
			for r, k := range rec.Keys {
				recipes = append(recipes, r)
				keys = append(keys, k)
			}
			rotated := extract.NewAPKRecord()
			for i, r := range recipes {
				rotated.Keys[r] = keys[(i+1)%len(keys)]
			}
			out, err := extract.EncodeAPKRecord(rotated)
			if err != nil {
				return err
			}
			return os.WriteFile(path, out, 0o644)
		}},
	}
	for _, d := range damage {
		for _, path := range apkRecords(t, dir) {
			if err := d.apply(path); err != nil {
				t.Fatalf("%s: %v", d.name, err)
			}
		}
		res, fs := runCounted(t, cfg)
		p := res.Persist
		if p.Packaged != want || p.ExtractedReports != 0 || p.WarmReports != want {
			t.Fatalf("%s: packaged %d, extracted %d, warm %d; want %d packaged, all warm",
				d.name, p.Packaged, p.ExtractedReports, p.WarmReports, want)
		}
		if !reflect.DeepEqual(cold.Persist.CorpusKeys, p.CorpusKeys) {
			t.Fatalf("%s: corpus keys diverge: %v vs %v", d.name, cold.Persist.CorpusKeys, p.CorpusKeys)
		}
		if n := fs.writes.Load(); n != 2 {
			t.Fatalf("%s: run wrote %d apk records back, want 2", d.name, n)
		}
	}
	healed, _ := runCounted(t, cfg)
	if healed.Persist.Packaged != 0 {
		t.Fatalf("records not healed: the next run packaged %d APKs", healed.Persist.Packaged)
	}
}

// TestAPKMemoHTTPPathNeverReadsIt checks the crawl path leaves the kind
// alone even when records exist: it downloads (and so packages) every
// APK, warm or not.
func TestAPKMemoHTTPPathNeverReadsIt(t *testing.T) {
	dir := t.TempDir()
	cfg := cachedConfig(dir, false)
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	cfg.UseHTTP = true
	res, fs := runCounted(t, cfg)
	if n := fs.reads.Load() + fs.writes.Load(); n != 0 {
		t.Fatalf("HTTP run touched apk records %d times", n)
	}
	if res.Persist.Packaged == 0 {
		t.Fatal("HTTP run counted no packaged APKs")
	}
}

// TestAPKMemoReplaysPackagingFailure: a recipe whose packaging failed is
// recorded with its error's text; a warm run fails it with the identical
// text without building it, and leaves the record as it was.
func TestAPKMemoReplaysPackagingFailure(t *testing.T) {
	cfg := cachedConfig(t.TempDir(), false)
	fs := &apkTraffic{FS: store.OSFS{}}
	cfg.StoreFS = fs
	e, err := newStudyEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	failing, packaged := strings.Repeat("ab", 32), strings.Repeat("cd", 32)
	tooBig := errors.New("apk: base apk is 104857601 bytes, exceeds the 104857600 Play Store limit; ship assets via OBB or asset packs")
	cold := e.openAPKMemo("2021")
	if _, err := cold.build(failing, func() ([]byte, error) { return nil, tooBig }); err != tooBig {
		t.Fatalf("cold build: %v, want the packaging error", err)
	}
	if data, err := cold.build(packaged, func() ([]byte, error) { return []byte("apk"), nil }); err != nil || string(data) != "apk" {
		t.Fatalf("cold build of a packaging recipe: %q, %v", data, err)
	}
	cold.record(packaged, strings.Repeat("0", 32))
	if err := cold.persist(); err != nil {
		t.Fatal(err)
	}

	warm := e.openAPKMemo("2021")
	if warm.prev == nil {
		t.Fatal("the cold record was not persisted")
	}
	_, err = warm.build(failing, func() ([]byte, error) {
		t.Fatal("the warm run built a recipe whose packaging failed")
		return nil, nil
	})
	if err == nil || err.Error() != tooBig.Error() {
		t.Fatalf("warm build: %v, want %q", err, tooBig)
	}
	warm.record(packaged, strings.Repeat("0", 32))
	writes := fs.writes.Load()
	if err := warm.persist(); err != nil {
		t.Fatal(err)
	}
	if fs.writes.Load() != writes {
		t.Fatal("the warm run rewrote an unchanged record")
	}
}

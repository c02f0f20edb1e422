package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/gaugenn/gaugenn/internal/errs"
)

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t)
	key := HexKey([]byte{0xde, 0xad, 0xbe, 0xef})
	if _, ok, err := s.Get(KindReport, key); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	data := []byte("payload bytes")
	if err := s.Put(KindReport, key, data); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(KindReport, key)
	if err != nil || !ok || !bytes.Equal(got, data) {
		t.Fatalf("get: ok=%v err=%v data=%q", ok, err, got)
	}
	if !s.Has(KindReport, key) {
		t.Fatal("Has must see the stored blob")
	}
	if s.Has(KindAnalysis, key) {
		t.Fatal("kinds must not share a namespace")
	}
}

func TestPutContentKeyedSkipsExisting(t *testing.T) {
	s := open(t)
	key := ContentKey([]byte("first"))
	// Corpus keys are hashes of the blob's own bytes: an existing blob is
	// byte-identical by construction, so Put must not rewrite it.
	if err := s.Put(KindCorpus, key, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindCorpus, key, []byte("second write ignored")); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Get(KindCorpus, key)
	if err != nil || string(got) != "first" {
		t.Fatalf("content-keyed put rewrote: %q err=%v", got, err)
	}
}

// TestGetChecksContentKey: a corpus blob whose bytes no longer hash to
// its key (here, a put under a key that is not its hash) reads as store
// corruption; a derived record under the same key is not checked.
func TestGetChecksContentKey(t *testing.T) {
	s := open(t)
	key := ContentKey([]byte("original"))
	for _, kind := range []string{KindCorpus, KindReport} {
		if err := s.Put(kind, key, []byte("changed")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := s.Get(KindCorpus, key); ok || !errors.Is(err, errs.ErrStoreCorrupt) {
		t.Fatalf("corpus blob not its key: ok=%v err=%v, want ErrStoreCorrupt", ok, err)
	}
	if got, ok, err := s.Get(KindReport, key); err != nil || !ok || string(got) != "changed" {
		t.Fatalf("report: ok=%v err=%v data=%q", ok, err, got)
	}
}

func TestPutDerivedRecordOverwrites(t *testing.T) {
	s := open(t)
	key := HexKey([]byte{1, 2, 3, 4})
	// Derived records (payload/analysis/report/graph) are keyed by their
	// *input's* hash; a codec version bump re-persists new bytes at the
	// same key, so Put must replace the stale blob.
	for _, kind := range []string{KindPayload, KindAnalysis, KindReport, KindGraph} {
		if err := s.Put(kind, key, []byte("v1 layout")); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(kind, key, []byte("v2 layout")); err != nil {
			t.Fatal(err)
		}
		got, _, err := s.Get(kind, key)
		if err != nil || string(got) != "v2 layout" {
			t.Fatalf("%s: stale record survived re-persist: %q err=%v", kind, got, err)
		}
	}
}

func TestKeyAndKindValidation(t *testing.T) {
	s := open(t)
	bad := []string{"", "ab", "../../../etc/passwd", "ABCDEF", "zzzz", "a/b/c/d"}
	for _, key := range bad {
		if err := s.Put(KindReport, key, nil); err == nil {
			t.Fatalf("key %q must be rejected", key)
		}
	}
	if err := s.Put("secrets", HexKey([]byte{1, 2, 3, 4}), nil); err == nil {
		t.Fatal("unknown kind must be rejected")
	}
}

func TestCount(t *testing.T) {
	s := open(t)
	if n, err := s.Count(KindPayload); err != nil || n != 0 {
		t.Fatalf("empty count: %d err=%v", n, err)
	}
	for i := 0; i < 20; i++ {
		key := HexKey([]byte{byte(i), 0xaa, 0xbb, byte(i)})
		if err := s.Put(KindPayload, key, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.Count(KindPayload); err != nil || n != 20 {
		t.Fatalf("count: %d err=%v", n, err)
	}
}

func TestConcurrentPutsSameKey(t *testing.T) {
	s := open(t)
	key := ContentKey([]byte("same bytes"))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Put(KindCorpus, key, []byte("same bytes")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got, ok, err := s.Get(KindCorpus, key)
	if err != nil || !ok || string(got) != "same bytes" {
		t.Fatalf("racing puts corrupted blob: ok=%v err=%v data=%q", ok, err, got)
	}
	// No temp-file litter survives the races.
	shard := filepath.Dir(s.blobPath(KindCorpus, key))
	ents, err := os.ReadDir(shard)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("shard dir holds %d entries, want just the blob", len(ents))
	}
}

func TestManifestAppendDedupeAndList(t *testing.T) {
	s := open(t)
	e1 := ManifestEntry{
		ID: "seed42-scale0.05", Seed: 42, Scale: 0.05,
		Snapshots: map[string]string{"2020": "aa11", "2021": "bb22"},
		Apps:      map[string]int{"2020": 10, "2021": 12},
	}
	for i := 0; i < 3; i++ {
		if err := s.AppendManifest(e1); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("identical appends must dedupe: %d entries", len(got))
	}
	// A changed entry for the same ID appends; Studies keeps the latest.
	e2 := e1
	e2.Snapshots = map[string]string{"2020": "aa11", "2021": "cc33"}
	if err := s.AppendManifest(e2); err != nil {
		t.Fatal(err)
	}
	all, err := s.Manifest()
	if err != nil || len(all) != 2 {
		t.Fatalf("manifest must be append-only: %d entries err=%v", len(all), err)
	}
	studies, err := s.Studies()
	if err != nil || len(studies) != 1 {
		t.Fatalf("studies: %d err=%v", len(studies), err)
	}
	if studies[0].Snapshots["2021"] != "cc33" {
		t.Fatalf("Studies must keep the latest entry per ID: %+v", studies[0])
	}
	st, ok, err := s.Study("seed42-scale0.05")
	if err != nil || !ok || st.Snapshots["2021"] != "cc33" {
		t.Fatalf("Study lookup: ok=%v err=%v %+v", ok, err, st)
	}
	if _, ok, _ := s.Study("nope"); ok {
		t.Fatal("unknown study must not resolve")
	}
}

func TestManifestSkipsTornLine(t *testing.T) {
	s := open(t)
	if err := s.AppendManifest(ManifestEntry{ID: "a", Seed: 1, Scale: 1}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crashed writer: a torn trailing line.
	f, err := os.OpenFile(s.manifestPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `{"id":"torn","se`)
	f.Close()
	got, err := s.Manifest()
	if err != nil || len(got) != 1 || got[0].ID != "a" {
		t.Fatalf("torn line must be skipped: %v err=%v", got, err)
	}
}

func TestReopenSeesExistingBlobs(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := HexKey([]byte{5, 6, 7, 8})
	if err := s1.Put(KindAnalysis, key, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s2.Get(KindAnalysis, key)
	if err != nil || !ok || string(got) != "persisted" {
		t.Fatalf("reopen lost blob: ok=%v err=%v %q", ok, err, got)
	}
}

package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/gaugenn/gaugenn/internal/analysis"
	"github.com/gaugenn/gaugenn/internal/index"
	"github.com/gaugenn/gaugenn/internal/store"
)

// TestIndexedResponsesMatchOracles pins the query engine's contract: every
// index-answered endpoint renders exactly the bytes writeJSON gives for
// the analysis it stands in for — the manifest listing, the corpora's
// dataset stats, analysis.TemporalDiff in both directions and with
// default labels, and analysis.LoadModelSummary for every unique model of
// both snapshots.
func TestIndexedResponsesMatchOracles(t *testing.T) {
	st, id, res := persistedStudy(t)
	srv := httptest.NewServer(New(st).Handler())
	defer srv.Close()

	studies, err := st.Studies()
	if err != nil {
		t.Fatal(err)
	}
	if len(studies) != 1 || studies[0].ID != id {
		t.Fatalf("studies: %+v", studies)
	}
	entry := studies[0]
	corpora := map[string]*analysis.Corpus{"2020": res.Corpus20, "2021": res.Corpus21}
	snaps := map[string]studySnapshot{}
	for label, c := range corpora {
		snaps[label] = studySnapshot{CorpusKey: entry.Snapshots[label], Dataset: c.Dataset()}
	}
	want := map[string]any{
		"/api/studies":       studies,
		"/api/studies/" + id: map[string]any{"study": entry, "snapshots": snaps},
	}
	for _, d := range []struct {
		from, to  string
		old, new_ *analysis.Corpus
	}{
		{id + ":2020", id + ":2021", res.Corpus20, res.Corpus21},
		{id + ":2021", id + ":2020", res.Corpus21, res.Corpus20},
		{id, id, res.Corpus20, res.Corpus21}, // default labels: from 2020, to 2021
	} {
		rows := analysis.TemporalDiff(d.old, d.new_)
		if len(rows) == 0 {
			t.Fatalf("diff %s -> %s has no rows to pin", d.from, d.to)
		}
		want["/api/diff?from="+d.from+"&to="+d.to] = diffResponse{From: d.from, To: d.to, Rows: rows}
	}
	for _, c := range corpora {
		for _, u := range c.SortedUniques() {
			ms, ok, err := analysis.LoadModelSummary(st, u.Checksum)
			if err != nil || !ok {
				t.Fatalf("LoadModelSummary(%s): ok=%v err=%v", u.Checksum, ok, err)
			}
			want["/api/models/"+string(u.Checksum)] = ms
		}
	}
	for path, v := range want {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		if got := get(t, srv, path, 200); string(got) != rec.Body.String() {
			t.Errorf("GET %s diverges from its oracle:\nserved: %s\noracle: %s", path, got, rec.Body.String())
		}
	}
}

// TestWarmPathDecodesNoCorpus asserts the acceptance criterion directly:
// with indexes persisted (the study engine writes them at persist time),
// /healthz, /api/studies, /api/studies/{id}, /api/models/{checksum} and
// /api/diff answer without decoding any corpus; only /tables still pays
// the decode.
func TestWarmPathDecodesNoCorpus(t *testing.T) {
	st, id, res := persistedStudy(t)
	s := New(st)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	sum := res.Corpus21.SortedUniques()[0].Checksum
	before := metCorpusDecodes.Value()
	get(t, srv, "/healthz", 200)
	get(t, srv, "/api/studies", 200)
	get(t, srv, "/api/studies/"+id, 200)
	get(t, srv, "/api/models/"+string(sum), 200)
	get(t, srv, fmt.Sprintf("/api/diff?from=%s&to=%s", id, id), 200)
	if d := metCorpusDecodes.Value() - before; d != 0 {
		t.Fatalf("warm path decoded %d corpora, want 0", d)
	}
	if n := s.corpora.len(); n != 0 {
		t.Fatalf("warm path memoised %d corpora, want 0", n)
	}
	// Tables are the one read that still renders from decoded corpora.
	get(t, srv, "/api/studies/"+id+"/tables", 200)
	if d := metCorpusDecodes.Value() - before; d == 0 {
		t.Fatal("tables render decoded no corpus — counter not wired?")
	}
}

// TestIndexSelfHeals: a corrupt (and separately, a missing) index blob is
// rebuilt from the corpus on first read, served correctly, and
// re-persisted so the next cold process loads it clean.
func TestIndexSelfHeals(t *testing.T) {
	st, id, res := persistedStudy(t)
	key := res.Persist.CorpusKeys["2021"]
	path := filepath.Join(st.Dir(), store.KindIndex, key[:2], key)

	for name, mangle := range map[string]func() error{
		"corrupt": func() error { return os.WriteFile(path, []byte("junk, not a sealed index"), 0o644) },
		"missing": func() error { return os.Remove(path) },
	} {
		if err := mangle(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := index.Load(st, key); ok {
			t.Fatalf("%s index blob still loads", name)
		}
		s := New(st) // fresh caches: the read must hit the damaged blob
		srv := httptest.NewServer(s.Handler())
		body := get(t, srv, "/api/studies/"+id, 200)
		srv.Close()
		if want := res.Corpus21.Dataset(); !stringsContainDataset(body, want.TotalModels, want.UniqueModels) {
			t.Fatalf("%s: healed response lacks dataset stats: %s", name, body)
		}
		ix, ok := index.Load(st, key)
		if !ok {
			t.Fatalf("%s index not re-persisted after self-heal", name)
		}
		if ix.Dataset != res.Corpus21.Dataset() {
			t.Fatalf("%s: re-persisted index stats %+v diverge", name, ix.Dataset)
		}
	}
}

// TestModelFallbackWithoutStudies: a checksum no persisted study covers —
// analysis records on disk, no manifest entry, so no index to probe — is
// answered from its analysis record, byte-identical to LoadModelSummary;
// a checksum with no record stays a 404.
func TestModelFallbackWithoutStudies(t *testing.T) {
	st, _, res := persistedStudy(t)
	if err := os.Remove(filepath.Join(st.Dir(), "manifest.jsonl")); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(st).Handler())
	defer srv.Close()
	if body := get(t, srv, "/api/studies", 200); strings.TrimSpace(string(body)) != "[]" {
		t.Fatalf("store still lists studies: %s", body)
	}
	sum := res.Corpus21.SortedUniques()[0].Checksum
	ms, ok, err := analysis.LoadModelSummary(st, sum)
	if err != nil || !ok {
		t.Fatalf("LoadModelSummary(%s): ok=%v err=%v", sum, ok, err)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, ms)
	if got := get(t, srv, "/api/models/"+string(sum), 200); string(got) != rec.Body.String() {
		t.Fatalf("fallback model summary diverges:\nserved: %s\noracle: %s", got, rec.Body.String())
	}
	get(t, srv, "/api/models/00000000000000000000000000000000", 404)
}

// stringsContainDataset loosely checks a study-detail body carries the
// expected counts (the byte-identical contract is pinned elsewhere).
func stringsContainDataset(body []byte, total, unique int) bool {
	s := string(body)
	return strings.Contains(s, fmt.Sprintf(`"TotalModels": %d`, total)) &&
		strings.Contains(s, fmt.Sprintf(`"UniqueModels": %d`, unique))
}

// TestETagRevalidation: every indexed GET answers with a strong ETag and
// Cache-Control, and revalidates an If-None-Match hit as a 304 with an
// empty body — including weak-validator and list forms.
func TestETagRevalidation(t *testing.T) {
	st, id, res := persistedStudy(t)
	srv := httptest.NewServer(New(st).Handler())
	defer srv.Close()

	paths := []string{
		"/api/studies",
		"/api/studies/" + id,
		"/api/studies/" + id + "/tables",
		"/api/models/" + string(res.Corpus21.SortedUniques()[0].Checksum),
		fmt.Sprintf("/api/diff?from=%s&to=%s", id, id),
	}
	for _, path := range paths {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		etag := resp.Header.Get("ETag")
		if resp.StatusCode != 200 || etag == "" {
			t.Fatalf("GET %s = %d, etag %q", path, resp.StatusCode, etag)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "public, max-age=5" {
			t.Fatalf("GET %s Cache-Control = %q", path, cc)
		}
		for _, match := range []string{etag, "W/" + etag, `"stale-one", ` + etag, "*"} {
			req, _ := http.NewRequest("GET", srv.URL+path, nil)
			req.Header.Set("If-None-Match", match)
			r2, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(r2.Body)
			r2.Body.Close()
			if r2.StatusCode != http.StatusNotModified || len(body) != 0 {
				t.Fatalf("GET %s If-None-Match %q = %d with %d body bytes, want 304 empty",
					path, match, r2.StatusCode, len(body))
			}
			if r2.Header.Get("ETag") != etag {
				t.Fatalf("304 for %s lost its ETag", path)
			}
		}
		// A non-matching validator still gets the full representation.
		req, _ := http.NewRequest("GET", srv.URL+path, nil)
		req.Header.Set("If-None-Match", `"0000000000000000"`)
		r3, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r3.Body)
		r3.Body.Close()
		if r3.StatusCode != 200 || len(body) == 0 {
			t.Fatalf("GET %s with stale validator = %d, %d bytes", path, r3.StatusCode, len(body))
		}
	}
	// Health is probe-cacheable for a second but carries no ETag (its
	// census is time-based, not content-addressed).
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "public, max-age=1" {
		t.Fatalf("healthz Cache-Control = %q", cc)
	}
}

// TestCensusMemo: /healthz's census is computed at most once per TTL and
// recomputed after expiry.
func TestCensusMemo(t *testing.T) {
	st, _, _ := persistedStudy(t)
	s := New(st, WithCensusTTL(time.Hour))
	first, err := s.censusCounts()
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.censusCounts()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(first).Pointer() != reflect.ValueOf(again).Pointer() {
		t.Fatal("census recomputed within TTL")
	}
	s.census.Lock()
	s.census.at = time.Time{} // force expiry
	s.census.Unlock()
	refreshed, err := s.censusCounts()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(first).Pointer() == reflect.ValueOf(refreshed).Pointer() {
		t.Fatal("census not recomputed after TTL expiry")
	}
	if !reflect.DeepEqual(first, refreshed) {
		t.Fatalf("census drifted over an unchanged store: %v != %v", first, refreshed)
	}
}

// TestManifestCacheInvalidation: the parsed manifest is reused while the
// file's (size, mtime) holds and reparsed when the log grows.
func TestManifestCacheInvalidation(t *testing.T) {
	st, id, _ := persistedStudy(t)
	s := New(st)
	first, err := s.studies()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 || first[0].ID != id {
		t.Fatalf("studies: %+v", first)
	}
	again, err := s.studies()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(first).Pointer() != reflect.ValueOf(again).Pointer() {
		t.Fatal("manifest reparsed while file unchanged")
	}
	// Appending an entry grows the file; the next read must see it.
	if err := st.AppendManifest(store.ManifestEntry{ID: "seed1-scale0.001"}); err != nil {
		t.Fatal(err)
	}
	grown, err := s.studies()
	if err != nil {
		t.Fatal(err)
	}
	if len(grown) != 2 {
		t.Fatalf("grown manifest served stale: %+v", grown)
	}
}

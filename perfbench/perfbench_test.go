package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"github.com/gaugenn/gaugenn/internal/analysis"
	"github.com/gaugenn/gaugenn/internal/core"
)

// TestReplayReproducesCoreRun pins the serial replay to core.Run on a seed
// the workloads' sizing did not use: cold into an empty store and warm
// against the store core.Run filled, the replay persists the same corpus
// keys, and store spans nest inside the layer calls that made them.
func TestReplayReproducesCoreRun(t *testing.T) {
	const seed, scale = 20260, 0.03
	dir := t.TempDir()
	cfg := studyConfig(seed, dir)
	cfg.Scale = scale
	cold, err := core.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(1 << 20)
	rp, err := replay(context.Background(), seed, scale, t.TempDir(), tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkKeys("cold replay", cold.Persist.CorpusKeys, rp.keys); err != nil {
		t.Fatal(err)
	}
	if rp.extracted == 0 || rp.cache.Decodes == 0 {
		t.Fatalf("cold replay did no work: %d extractions, %d decodes", rp.extracted, rp.cache.Decodes)
	}

	warm, err := core.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkWarm(warm.Persist); err != nil {
		t.Fatal(err)
	}
	if err := checkKeys("warm run", cold.Persist.CorpusKeys, warm.Persist.CorpusKeys); err != nil {
		t.Fatal(err)
	}
	rp, err = replay(context.Background(), seed, scale, dir, tr, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkKeys("warm replay", cold.Persist.CorpusKeys, rp.keys); err != nil {
		t.Fatal(err)
	}
	if rp.extracted != 0 || rp.cache.Decodes != 0 || rp.warmN == 0 {
		t.Fatalf("warm replay recomputed: %d extractions, %d decodes, %d warm reports", rp.extracted, rp.cache.Decodes, rp.warmN)
	}

	nested := map[string]bool{}
	for _, s := range tr.spans {
		if s.Name == "store.write" || s.Name == "store.read" {
			if s.Parent < 0 {
				t.Fatalf("%s span without a parent", s.Name)
			}
			nested[tr.spans[s.Parent].Name] = true
		}
	}
	for _, layer := range []string{"extract.extract", "analysis.ingest", "extract.report_load"} {
		if !nested[layer] {
			t.Errorf("no store span nested in %s (parents seen: %v)", layer, nested)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer(16)
	tr.spans = []span{
		{Name: "extract.extract", Parent: -1, Start: 0, End: 10 * time.Millisecond},
		{Name: "store.read", Parent: 0, Start: 1 * time.Millisecond, End: 3 * time.Millisecond},
		{Name: "store.write", Parent: 0, Start: 5 * time.Millisecond, End: 7 * time.Millisecond},
		{Name: "extract.extract", Parent: -1, Start: 20 * time.Millisecond, End: 21 * time.Millisecond},
	}
	self := tr.selfTimes()
	if got, want := self["extract.extract"], 7*time.Millisecond; got != want {
		t.Errorf("extract self time %v, want %v", got, want)
	}
	if got, want := self["store.read"]+self["store.write"], 4*time.Millisecond; got != want {
		t.Errorf("store self time %v, want %v", got, want)
	}
}

// TestChecksCountFailures feeds every output check one deliberately wrong
// output and expects exactly that operation to count as failed.
func TestChecksCountFailures(t *testing.T) {
	body := []byte(`{"checksum":"abc"}`)
	flipped := bytes.Clone(body)
	flipped[3] ^= 1
	digest := [32]byte{1, 2, 3}
	wrongDigest := digest
	wrongDigest[31] ^= 1
	keys := map[string]string{"2020": "aa", "2021": "bb"}

	book := digestBook{}
	if err := book.check(0, "face_fp32", 7, digest); err != nil {
		t.Fatalf("first digest: %v", err)
	}
	for _, tc := range []struct {
		name      string
		good, bad error
	}{
		{"body byte", checkResponse("/x", 200, 200, body, body), checkResponse("/x", 200, 200, flipped, body)},
		{"status", checkResponse("/x", 304, 304, nil, body), checkResponse("/x", 200, 304, body, body)},
		{"digest", book.check(0, "face_fp32", 7, digest), book.check(0, "face_fp32", 7, wrongDigest)},
		{"warm decodes", checkWarm(&core.PersistStats{}), checkWarm(&core.PersistStats{Cache: analysis.CacheStats{Decodes: 1}})},
		{"corpus keys", checkKeys("k", keys, keys), checkKeys("k", keys, map[string]string{"2020": "aa", "2021": "bc"})},
		{"tables", checkTables("/t", []byte("T2"), "T2"), checkTables("/t", []byte("T3"), "T2")},
	} {
		ck := &checker{}
		ck.attempt(2)
		ck.check(tc.good)
		ck.check(tc.bad)
		if ck.failed != 1 || ck.failFrac() != 0.5 {
			t.Errorf("%s: %d failed of %d (good err %v, bad err %v)", tc.name, ck.failed, ck.attempted, tc.good, tc.bad)
		}
	}
}

// TestServeLoopCountsWrongBodies drives the client loop against a server
// whose answer for one URL differs from its recorded first response.
func TestServeLoopCountsWrongBodies(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"e"`)
		if r.Header.Get("If-None-Match") == `"e"` {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Write([]byte("body of " + r.URL.Path))
	}))
	defer srv.Close()
	fx := &serveFixture{
		base: srv.URL,
		targets: []*target{
			{path: "/good", route: rModel, etag: `"e"`, body: []byte("body of /good")},
			{path: "/flipped", route: rStudy, etag: `"e"`, body: []byte("body of /flipped!")},
		},
		seq: []step{{target: 0}, {target: 0, revalidate: true}, {target: 1}},
	}
	c, err := newServeClient(fx, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer c.hc.CloseIdleConnections()
	ck := &checker{}
	for _, s := range fx.seq {
		c.do(fx, s, ck, nil, 0)
	}
	if ck.failed != 1 || c.n != 3 || len(c.lat) != 2 {
		t.Fatalf("failed %d of %d requests with %d latencies, want 1 of 3 with 2 (%v)", ck.failed, c.n, len(c.lat), ck.msgs)
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json at the repository root
// equal to the catalog this program reports against.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from the catalog; want:\n%s", want)
	}
}

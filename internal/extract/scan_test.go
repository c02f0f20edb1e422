package extract

import (
	"context"
	"sort"
	"strings"
	"testing"

	"github.com/gaugenn/gaugenn/internal/android/apk"
	"github.com/gaugenn/gaugenn/internal/android/dex"
	"github.com/gaugenn/gaugenn/internal/cloudml"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/playstore"
)

// Regression for the nondeterministic smali scan: the old detector
// concatenated per-class smali bodies in map-iteration order with no
// separator, so a marker split across the junction of two bodies could
// match (or not) run to run. The scanner matches per code string: a
// marker must never assemble from two adjacent strings.
func TestScanDoesNotMatchAcrossStringJunctions(t *testing.T) {
	d := &dex.Dex{Classes: []dex.Class{
		{
			Name: "Lcom/a/First;",
			Methods: []dex.Method{{Name: "a", Calls: []string{
				"Lcom/a/Util;->tailNnApi", // ends with a marker prefix
			}}},
		},
		{
			Name: "Lcom/a/Second;",
			Methods: []dex.Method{{Name: "Delegate", Calls: []string{ // starts with the marker suffix
				"DelegateFactory;->make()",
			}}},
		},
	}}
	for i := 0; i < 50; i++ { // the old bug was probabilistic; hammer it
		rep := extractFiles(map[string][]byte{"classes.dex": d.Encode()})
		if rep.UsesNNAPI {
			t.Fatal("marker assembled across two code strings")
		}
	}
	// The unsplit marker in a single string must still match.
	whole := &dex.Dex{Classes: []dex.Class{{
		Name: "Lcom/a/Whole;",
		Methods: []dex.Method{{Name: "a", Calls: []string{
			"Lorg/tensorflow/lite/nnapi/NnApiDelegate;-><init>()V",
		}}},
	}}}
	rep := extractFiles(map[string][]byte{"classes.dex": whole.Encode()})
	if !rep.UsesNNAPI {
		t.Fatal("marker in a single string not detected")
	}
}

// Property test: over the generated store's fixture apps, the Aho–Corasick
// hot path and the old per-marker strings.Contains detector agree on every
// code-derived signal.
func TestScannerAgreesWithContainsReference(t *testing.T) {
	study, err := playstore.GenerateStudy(playstore.DefaultConfig(23, 0.04))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, a := range study.Snap21.Apps {
		if !a.HasML() && !a.UsesNNAPI && !a.UsesXNNPACK {
			continue
		}
		apkBytes, err := study.Snap21.BuildAPK(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExtractAPK(apkBytes)
		if err != nil {
			t.Fatal(err)
		}

		// Reference detector: baksmali the dex, scan each body (and each
		// native lib's symbol text) with strings.Contains via scanCodeText,
		// then fold in model-payload frameworks like the pipeline does.
		want := &Report{}
		r, err := openForReference(apkBytes)
		if err != nil {
			t.Fatal(err)
		}
		for name, data := range r {
			switch {
			case strings.HasSuffix(name, ".dex") && dex.IsDex(data):
				d, err := dex.Decode(data)
				if err != nil {
					continue
				}
				smali := dex.Baksmali(d)
				paths := make([]string, 0, len(smali))
				for p := range smali {
					paths = append(paths, p)
				}
				sort.Strings(paths)
				for _, p := range paths {
					want.scanCodeText(smali[p])
				}
			case strings.HasPrefix(name, "lib/") && dex.IsNativeLib(data):
				lib, err := dex.DecodeNativeLib(data)
				if err != nil {
					continue
				}
				want.scanCodeText(lib.SoName + "\x00" + strings.Join(lib.Symbols, "\x00"))
			}
		}
		for _, m := range got.Models {
			want.addFramework(m.Framework)
		}
		sort.Strings(want.Frameworks)

		if got.UsesNNAPI != want.UsesNNAPI || got.UsesXNNPACK != want.UsesXNNPACK ||
			got.UsesSNPE != want.UsesSNPE || got.LazyModelDownload != want.LazyModelDownload ||
			got.OnDeviceTraining != want.OnDeviceTraining {
			t.Fatalf("%s: flag mismatch: scanner %+v, reference %+v", a.Package, got, want)
		}
		if strings.Join(got.Frameworks, ",") != strings.Join(want.Frameworks, ",") {
			t.Fatalf("%s: frameworks: scanner %v, reference %v", a.Package, got.Frameworks, want.Frameworks)
		}
		checked++
		if checked >= 25 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no fixture apps checked")
	}
}

// openForReference materialises every APK entry, the way the old pipeline
// did, for the reference detector.
func openForReference(apkBytes []byte) (map[string][]byte, error) {
	r, err := apk.Open(apkBytes)
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for _, name := range r.Names() {
		data, err := r.ReadFile(name)
		if err != nil {
			return nil, err
		}
		out[name] = data
	}
	return out, nil
}

// scanCodeText applies the marker tables to a blob of code-derived text
// with per-marker strings.Contains passes. It is the reference
// implementation the Aho–Corasick hot path is property-tested against.
func (r *Report) scanCodeText(text string) {
	for fw, markers := range frameworkCodeMarkers {
		for _, m := range markers {
			if strings.Contains(text, m) {
				r.addFramework(fw)
				break
			}
		}
	}
	for _, m := range nnapiMarkers {
		if strings.Contains(text, m) {
			r.UsesNNAPI = true
		}
	}
	for _, m := range xnnpackMarkers {
		if strings.Contains(text, m) {
			r.UsesXNNPACK = true
		}
	}
	for _, m := range lazyMarkers {
		if strings.Contains(text, m) {
			r.LazyModelDownload = true
		}
	}
	for _, m := range trainingMarkers {
		if strings.Contains(text, m) {
			r.OnDeviceTraining = true
		}
	}
	for _, m := range snpeUsageMarkers {
		if strings.Contains(text, m) {
			r.UsesSNPE = true
		}
	}
}

// Cloud API detections must match the smali-text detector
// (cloudml.DetectSmali) on fixture apps.
func TestCloudDetectionMatchesSmaliReference(t *testing.T) {
	study, err := playstore.GenerateStudy(playstore.DefaultConfig(31, 0.04))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, a := range study.Snap21.Apps {
		if len(a.CloudAPIs) == 0 {
			continue
		}
		apkBytes, err := study.Snap21.BuildAPK(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExtractAPK(apkBytes)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.CloudAPIs) == 0 {
			t.Fatalf("%s: cloud APIs missed (app declares %v)", a.Package, a.CloudAPIs)
		}
		files, err := openForReference(apkBytes)
		if err != nil {
			t.Fatal(err)
		}
		var smali map[string]string
		for name, data := range files {
			if strings.HasSuffix(name, ".dex") && dex.IsDex(data) {
				d, err := dex.Decode(data)
				if err != nil {
					continue
				}
				if smali == nil {
					smali = map[string]string{}
				}
				for p, body := range dex.Baksmali(d) {
					smali[p] = body
				}
			}
		}
		want := cloudml.DetectSmali(smali)
		if len(got.CloudAPIs) != len(want) {
			t.Fatalf("%s: detections: got %v, want %v", a.Package, got.CloudAPIs, want)
		}
		for i := range want {
			if got.CloudAPIs[i] != want[i] {
				t.Fatalf("%s: detection %d: got %+v, want %+v", a.Package, i, got.CloudAPIs[i], want[i])
			}
		}
		checked++
		if checked >= 15 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no cloud-API apps checked")
	}
}

// Reports produced with and without a decode cache must be identical in
// everything but the Graph pointers (cached extraction parks graphs behind
// the cache).
func TestCachedExtractionMatchesUncached(t *testing.T) {
	study, err := playstore.GenerateStudy(playstore.DefaultConfig(59, 0.04))
	if err != nil {
		t.Fatal(err)
	}
	cache := newTestDecodeCache()
	checked := 0
	for _, a := range study.Snap21.Apps {
		if !a.HasML() {
			continue
		}
		apkBytes, err := study.Snap21.BuildAPK(a)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := ExtractAPK(apkBytes)
		if err != nil {
			t.Fatal(err)
		}
		// Run the cached path twice: cold (first sight decodes) and warm
		// (pure payload-hash hit). Both must equal the plain report.
		for pass := 0; pass < 2; pass++ {
			cached, err := ExtractAPKCached(context.Background(), apkBytes, cache)
			if err != nil {
				t.Fatal(err)
			}
			compareReports(t, a.Package, plain, cached)
		}
		checked++
		if checked >= 20 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no ML apps checked")
	}
}

func compareReports(t *testing.T, pkg string, plain, cached *Report) {
	t.Helper()
	if len(plain.Models) != len(cached.Models) {
		t.Fatalf("%s: models %d vs %d (failed: %v vs %v)",
			pkg, len(plain.Models), len(cached.Models), plain.FailedValidation, cached.FailedValidation)
	}
	for i := range plain.Models {
		p, c := plain.Models[i], cached.Models[i]
		if p.Path != c.Path || p.Framework != c.Framework || p.Checksum != c.Checksum || p.FileBytes != c.FileBytes {
			t.Fatalf("%s: model %d mismatch: %+v vs %+v", pkg, i, p, c)
		}
		if p.Graph == nil {
			t.Fatalf("%s: uncached extraction must carry graphs", pkg)
		}
		if c.Graph != nil {
			t.Fatalf("%s: cached extraction must not carry graphs", pkg)
		}
	}
	if strings.Join(plain.FailedValidation, ",") != strings.Join(cached.FailedValidation, ",") {
		t.Fatalf("%s: failed validation: %v vs %v", pkg, plain.FailedValidation, cached.FailedValidation)
	}
	if strings.Join(plain.Frameworks, ",") != strings.Join(cached.Frameworks, ",") {
		t.Fatalf("%s: frameworks: %v vs %v", pkg, plain.Frameworks, cached.Frameworks)
	}
	if plain.CandidateFiles != cached.CandidateFiles {
		t.Fatalf("%s: candidates: %d vs %d", pkg, plain.CandidateFiles, cached.CandidateFiles)
	}
}

// testDecodeCache is a minimal single-flight DecodeCache for tests,
// mirroring the analysis.UniqueCache front door without importing analysis
// (which would cycle).
type testDecodeCache struct {
	entries map[PayloadHash]*testPayload
}

type testPayload struct {
	sum graph.Checksum
	ok  bool
}

func newTestDecodeCache() *testDecodeCache {
	return &testDecodeCache{entries: map[PayloadHash]*testPayload{}}
}

func (c *testDecodeCache) Payload(ctx context.Context, h PayloadHash, decode func() (*graph.Graph, error)) (graph.Checksum, bool, error) {
	if err := ctx.Err(); err != nil {
		return "", false, err
	}
	if e, ok := c.entries[h]; ok {
		return e.sum, e.ok, nil
	}
	e := &testPayload{}
	if g, err := decode(); err == nil {
		e.sum = graph.ModelChecksum(g)
		e.ok = true
	}
	c.entries[h] = e
	return e.sum, e.ok, nil
}

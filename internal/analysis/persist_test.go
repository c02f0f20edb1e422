package analysis

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/gaugenn/gaugenn/internal/extract"
	"github.com/gaugenn/gaugenn/internal/nn/formats"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
	"github.com/gaugenn/gaugenn/internal/store"
)

// payloadFixture builds one decodable model payload: the file set, its
// payload hash, and a decode closure that counts invocations.
func payloadFixture(t *testing.T, seed int64) (extract.PayloadHash, func(*int) func() (*graph.Graph, error)) {
	t.Helper()
	g, err := zoo.Build(zoo.Spec{Task: zoo.TaskFaceDetection, Seed: seed, Hinted: true})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := formats.ByName("tflite")
	fs, err := f.Encode(g, g.Name)
	if err != nil {
		t.Fatal(err)
	}
	h := extract.HashPayload("tflite", fs)
	mkDecode := func(count *int) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) {
			*count++
			return f.Decode(fs)
		}
	}
	return h, mkDecode
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestPersistentCacheWarmSkipsDecodeAndProfile(t *testing.T) {
	st := openStore(t)
	h, mkDecode := payloadFixture(t, 7)

	// Cold pass: decode + profile run and write through.
	cold := NewPersistentUniqueCache(true, st, true)
	decodes := 0
	sum, ok, _ := cold.Payload(context.Background(), h, mkDecode(&decodes))
	if !ok || decodes != 1 {
		t.Fatalf("cold payload: ok=%v decodes=%d", ok, decodes)
	}
	coldData, err := cold.get(context.Background(), extract.Model{Checksum: sum})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.PersistErr(); err != nil {
		t.Fatal(err)
	}
	cs := cold.Stats()
	if cs.Decodes != 1 || cs.Profiles != 1 || cs.WarmPayloadHits != 0 {
		t.Fatalf("cold stats: %+v", cs)
	}

	// Warm pass in a fresh cache: nothing decodes, nothing profiles.
	warm := NewPersistentUniqueCache(true, st, true)
	warmDecodes := 0
	wsum, ok, _ := warm.Payload(context.Background(), h, mkDecode(&warmDecodes))
	if !ok || wsum != sum {
		t.Fatalf("warm payload: ok=%v sum=%s want %s", ok, wsum, sum)
	}
	if warmDecodes != 0 {
		t.Fatalf("warm run decoded %d times", warmDecodes)
	}
	warmData, err := warm.get(context.Background(), extract.Model{Checksum: sum})
	if err != nil {
		t.Fatal(err)
	}
	ws := warm.Stats()
	if ws.Decodes != 0 || ws.Profiles != 0 || ws.WarmPayloadHits != 1 || ws.WarmAnalysisHits != 1 {
		t.Fatalf("warm stats: %+v", ws)
	}

	// The warm analysis must match the cold one in every derived field.
	if warmData.name != coldData.name || warmData.task != coldData.task ||
		warmData.arch != coldData.arch || warmData.modality != coldData.modality {
		t.Fatalf("warm analysis diverges: %+v vs %+v", warmData, coldData)
	}
	if !reflect.DeepEqual(warmData.profile, coldData.profile) {
		t.Fatal("warm profile differs from cold")
	}
	if !reflect.DeepEqual(warmData.layerSums, coldData.layerSums) {
		t.Fatal("warm layer checksums differ from cold")
	}
	if !reflect.DeepEqual(warmData.weights, coldData.weights) {
		t.Fatal("warm weight stats differ from cold")
	}
	// keepGraphs caches load the persisted graph too, byte-identical.
	if warmData.graph == nil || coldData.graph == nil {
		t.Fatal("keepGraphs cache lost a graph")
	}
	if graph.ModelChecksum(warmData.graph) != graph.ModelChecksum(coldData.graph) {
		t.Fatal("persisted graph round-trip changed the model checksum")
	}
}

func TestPersistentCacheFailedDecodeIsCached(t *testing.T) {
	st := openStore(t)
	h := extract.HashPayload("tflite", formats.FileSet{"junk.tflite": []byte("not a model")})
	cold := NewPersistentUniqueCache(false, st, true)
	decodes := 0
	fail := func() (*graph.Graph, error) {
		decodes++
		return nil, fmt.Errorf("boom")
	}
	if _, ok, _ := cold.Payload(context.Background(), h, fail); ok || decodes != 1 {
		t.Fatalf("cold failed decode: ok=%v decodes=%d", ok, decodes)
	}
	warm := NewPersistentUniqueCache(false, st, true)
	if _, ok, _ := warm.Payload(context.Background(), h, fail); ok {
		t.Fatal("persisted failure must stay a failure")
	}
	if decodes != 1 {
		t.Fatalf("warm run re-decoded a known-bad payload (%d decodes)", decodes)
	}
}

func TestPersistentCachePayloadWithoutAnalysisRedecodes(t *testing.T) {
	st := openStore(t)
	h, mkDecode := payloadFixture(t, 9)
	// Cold run that "crashed" between the payload write and the analysis
	// write: only Payload ran.
	cold := NewPersistentUniqueCache(false, st, true)
	decodes := 0
	if _, ok, _ := cold.Payload(context.Background(), h, mkDecode(&decodes)); !ok {
		t.Fatal("cold decode failed")
	}
	// A warm run must not trust the orphaned payload record — the decode
	// has to run again so analysis has a graph.
	warm := NewPersistentUniqueCache(false, st, true)
	warmDecodes := 0
	if _, ok, _ := warm.Payload(context.Background(), h, mkDecode(&warmDecodes)); !ok {
		t.Fatal("warm decode failed")
	}
	if warmDecodes != 1 {
		t.Fatalf("orphaned payload record served warm (%d decodes)", warmDecodes)
	}
}

func TestPersistentCacheResumeOffWritesButNeverReads(t *testing.T) {
	st := openStore(t)
	h, mkDecode := payloadFixture(t, 11)
	first := NewPersistentUniqueCache(false, st, true)
	decodes := 0
	sum, _, _ := first.Payload(context.Background(), h, mkDecode(&decodes))
	if _, err := first.get(context.Background(), extract.Model{Checksum: sum}); err != nil {
		t.Fatal(err)
	}
	// resume=false ignores the populated store and recomputes.
	cold := NewPersistentUniqueCache(false, st, false)
	coldDecodes := 0
	if _, ok, _ := cold.Payload(context.Background(), h, mkDecode(&coldDecodes)); !ok || coldDecodes != 1 {
		t.Fatalf("resume=false must recompute: ok=%v decodes=%d", ok, coldDecodes)
	}
}

// TestPersistentCacheTrustCheckSharesTheLoad runs the warm trust check
// and ingest's get for one stored checksum from many goroutines at once:
// both are attempts on the checksum's one flight, so the record is loaded
// once and every caller gets that one analysis.
func TestPersistentCacheTrustCheckSharesTheLoad(t *testing.T) {
	st := openStore(t)
	h, mkDecode := payloadFixture(t, 17)
	ctx := context.Background()
	cold := NewPersistentUniqueCache(true, st, true)
	decodes := 0
	sum, _, _ := cold.Payload(ctx, h, mkDecode(&decodes))
	if _, err := cold.get(ctx, extract.Model{Checksum: sum}); err != nil {
		t.Fatal(err)
	}

	warm := NewPersistentUniqueCache(true, st, true)
	const n = 16
	got := make([]*uniqueData, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 && !warm.HasAnalysis(sum) {
				t.Error("trust check refused a stored analysis")
				return
			}
			d, err := warm.get(ctx, extract.Model{Checksum: sum})
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = d
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent trust checks and gets loaded the analysis more than once")
		}
	}
	if ws := warm.Stats(); ws.WarmAnalysisHits != 1 || ws.Profiles != 0 || ws.Checksums != 1 {
		t.Fatalf("warm stats: %+v", ws)
	}
}

// TestTwinPayloadParksNoSeedAfterAnalysis decodes two payloads of one
// model, as the tflite+snpe twins ship it, on either side of the
// checksum's analysis: once computed from the first decode's seed, once
// loaded through HasAnalysis. Either way the second decode must park no
// seed: nothing would consume it, and it would pin its source buffer.
func TestTwinPayloadParksNoSeedAfterAnalysis(t *testing.T) {
	g, err := zoo.Build(zoo.Spec{Task: zoo.TaskFaceDetection, Seed: 31, Hinted: true})
	if err != nil {
		t.Fatal(err)
	}
	payload := func(name string) (extract.PayloadHash, func() (*graph.Graph, error)) {
		f, _ := formats.ByName(name)
		fs, err := f.Encode(g, g.Name)
		if err != nil {
			t.Fatal(err)
		}
		return extract.HashPayload(name, fs), func() (*graph.Graph, error) { return f.Decode(fs) }
	}
	tflite, decodeTFLite := payload("tflite")
	snpe, decodeSNPE := payload("snpe")
	parked := func(uc *UniqueCache) int {
		uc.mu.Lock()
		defer uc.mu.Unlock()
		return len(uc.seeds)
	}
	ctx := context.Background()

	// Computed: the first decode's seed feeds the analysis.
	uc := NewUniqueCache(false)
	sum, ok, err := uc.Payload(ctx, tflite, decodeTFLite)
	if err != nil || !ok || parked(uc) != 1 {
		t.Fatalf("first decode: ok=%v err=%v seeds=%d", ok, err, parked(uc))
	}
	if _, err := uc.get(ctx, extract.Model{Checksum: sum}); err != nil {
		t.Fatal(err)
	}
	twin, ok, err := uc.Payload(ctx, snpe, decodeSNPE)
	if err != nil || !ok || twin != sum {
		t.Fatalf("twin decode: sum=%s want %s ok=%v err=%v", twin, sum, ok, err)
	}
	if n := parked(uc); n != 0 || uc.Stats().Decodes != 2 {
		t.Fatalf("twin decoded after the computed analysis: %d seeds parked, %d decodes", n, uc.Stats().Decodes)
	}

	// Loaded: the trust check records the analysis before the twin decodes.
	st := openStore(t)
	cold := NewPersistentUniqueCache(true, st, true)
	if _, _, err := cold.Payload(ctx, tflite, decodeTFLite); err != nil {
		t.Fatal(err)
	}
	if _, err := cold.get(ctx, extract.Model{Checksum: sum}); err != nil {
		t.Fatal(err)
	}
	warm := NewPersistentUniqueCache(true, st, true)
	if !warm.HasAnalysis(sum) {
		t.Fatal("persisted analysis not found")
	}
	if _, ok, err := warm.Payload(ctx, snpe, decodeSNPE); err != nil || !ok {
		t.Fatalf("twin decode: ok=%v err=%v", ok, err)
	}
	ws := warm.Stats()
	if n := parked(warm); n != 0 || ws.Decodes != 1 || ws.WarmAnalysisHits != 1 || ws.Profiles != 0 {
		t.Fatalf("twin decoded after the loaded analysis: %d seeds parked, stats %+v", n, ws)
	}
}

func TestLoadModelSummary(t *testing.T) {
	st := openStore(t)
	h, mkDecode := payloadFixture(t, 13)
	uc := NewPersistentUniqueCache(true, st, true)
	decodes := 0
	sum, _, _ := uc.Payload(context.Background(), h, mkDecode(&decodes))
	d, err := uc.get(context.Background(), extract.Model{Checksum: sum})
	if err != nil {
		t.Fatal(err)
	}
	ms, ok, err := LoadModelSummary(st, sum)
	if err != nil || !ok {
		t.Fatalf("summary: ok=%v err=%v", ok, err)
	}
	if ms.Name != d.name || ms.Task != d.task.String() || ms.Arch != d.arch.String() {
		t.Fatalf("summary mismatch: %+v", ms)
	}
	if ms.FLOPs != d.profile.FLOPs || ms.Params != d.profile.Params || !ms.HasGraph {
		t.Fatalf("summary profile mismatch: %+v", ms)
	}
	if _, ok, err := LoadModelSummary(st, "00000000000000000000000000000000"); err != nil || ok {
		t.Fatalf("unknown checksum must miss: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := LoadModelSummary(st, "../evil"); ok {
		t.Fatal("invalid checksum must miss")
	}
}

func TestCorpusCodecRoundTripByteStable(t *testing.T) {
	_, c21 := corpora(t)
	first, err := EncodeCorpus(c21)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := DecodeCorpus(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := EncodeCorpus(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("save->load->save is not byte-stable")
	}
	// The loaded corpus answers the report questions identically.
	if !reflect.DeepEqual(loaded.Dataset(), c21.Dataset()) {
		t.Fatalf("dataset stats diverge: %+v vs %+v", loaded.Dataset(), c21.Dataset())
	}
	lr, li := loaded.TaskBreakdown(true)
	cr, ci := c21.TaskBreakdown(true)
	if li != ci || !reflect.DeepEqual(lr, cr) {
		t.Fatal("task breakdown diverges after round trip")
	}
	if loaded.InstancesSharedAcrossApps() != c21.InstancesSharedAcrossApps() {
		t.Fatal("shared-instances fraction diverges after round trip")
	}
	if !reflect.DeepEqual(loaded.Optimisations(), c21.Optimisations()) {
		t.Fatal("optimisation stats diverge after round trip")
	}
}

func TestCorpusCodecPreservesTemporalDiff(t *testing.T) {
	c20, c21 := corpora(t)
	b20, err := EncodeCorpus(c20)
	if err != nil {
		t.Fatal(err)
	}
	b21, err := EncodeCorpus(c21)
	if err != nil {
		t.Fatal(err)
	}
	l20, err := DecodeCorpus(b20)
	if err != nil {
		t.Fatal(err)
	}
	l21, err := DecodeCorpus(b21)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(TemporalDiff(l20, l21), TemporalDiff(c20, c21)) {
		t.Fatal("temporal diff diverges on loaded corpora")
	}
}

func TestCorpusCodecVersionGate(t *testing.T) {
	if _, err := DecodeCorpus([]byte(`{"v":99,"label":"x"}`)); err == nil {
		t.Fatal("future corpus version must not decode")
	}
	if _, err := DecodeCorpus([]byte(`garbage`)); err == nil {
		t.Fatal("garbage must not decode")
	}

	// Stored uniques must be what the records give: aa ships as a
	// tflite+dlc twin (first record tflite) in two apps, bb once.
	prof := &graph.Profile{}
	for _, row := range []struct {
		name   string
		mangle func(w *corpusWire)
		want   string // error substring; "" decodes
	}{
		{"as encoded", func(*corpusWire) {}, ""},
		{"record naming a missing unique", func(w *corpusWire) {
			w.Records = append(w.Records, Record{Package: "c", Framework: "tflite", Checksum: "cc"})
		}, "names no stored unique"},
		{"unique no record names", func(w *corpusWire) {
			w.Uniques = append(w.Uniques, uniqueWire{Checksum: "cc", Framework: "tflite", Profile: prof, Instances: 1})
		}, "named by no record"},
		{"instance count off by one", func(w *corpusWire) { w.Uniques[1].Instances++ }, "its records give"},
		{"changed framework", func(w *corpusWire) { w.Uniques[0].Framework = "dlc" }, "its records give"},
	} {
		w := corpusWire{
			V:     persistCodecVersion,
			Label: "x",
			Records: []Record{
				{Package: "a", Framework: "tflite", Checksum: "aa"},
				{Package: "b", Framework: "dlc", Checksum: "aa"},
				{Package: "b", Framework: "tflite", Checksum: "bb"},
			},
			Uniques: []uniqueWire{
				{Checksum: "aa", Framework: "tflite", Profile: prof, Instances: 2},
				{Checksum: "bb", Framework: "tflite", Profile: prof, Instances: 1},
			},
		}
		row.mangle(&w)
		blob, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		c, err := DecodeCorpus(blob)
		if row.want == "" {
			if err != nil || c.Uniques["aa"].Framework != "tflite" || c.Uniques["aa"].Instances != 2 {
				t.Fatalf("%s: err=%v", row.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), row.want) {
			t.Fatalf("%s: err=%v, want one naming %q", row.name, err, row.want)
		}
	}
}

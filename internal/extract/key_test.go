package extract

import (
	"archive/zip"
	"bytes"
	"context"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/gaugenn/gaugenn/internal/android/apk"
	"github.com/gaugenn/gaugenn/internal/android/dex"
	"github.com/gaugenn/gaugenn/internal/nn/formats"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
)

var updateSeeds = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzAPKKey from the seed builders")

// smallModelFiles encodes one of the smallest zoo models in a format.
func smallModelFiles(tb testing.TB, task zoo.Task, fw string) formats.FileSet {
	tb.Helper()
	spec := map[zoo.Task]zoo.Spec{
		zoo.TaskFaceDetection:    {Task: zoo.TaskFaceDetection, Seed: 1, Opts: zoo.ArchOpts{Width: 0.1, Resolution: 16}},
		zoo.TaskKeywordDetection: {Task: zoo.TaskKeywordDetection, Seed: 1, Quantized: true, Opts: zoo.ArchOpts{Width: 0.1, TimeSteps: 4, Classes: 2}},
		zoo.TaskCrashDetection:   {Task: zoo.TaskCrashDetection, Seed: 1, Opts: zoo.ArchOpts{Width: 0.25, TimeSteps: 4, Classes: 2}},
	}[task]
	g, err := zoo.Build(spec)
	if err != nil {
		tb.Fatal(err)
	}
	f, ok := formats.ByName(fw)
	if !ok {
		tb.Fatalf("unknown framework %s", fw)
	}
	fs, err := f.Encode(g, "m")
	if err != nil {
		tb.Fatal(err)
	}
	return fs
}

// keyFixture is an APK holding a stored tflite model, an ncnn pair whose
// two files are both deflated (outside assets/, so nothing stores them),
// a dex and a native library: every kind of entry the key walk reads,
// down both of apk.Entry's read paths.
type keyFixture struct {
	apk         []byte
	tflite      formats.FileSet
	ncnn        formats.FileSet
	wantPayload map[PayloadHash]bool
}

func buildKeyFixture(tb testing.TB) keyFixture {
	tb.Helper()
	fx := keyFixture{
		tflite: smallModelFiles(tb, zoo.TaskFaceDetection, "tflite"),
		ncnn:   smallModelFiles(tb, zoo.TaskKeywordDetection, "ncnn"),
	}
	b := apk.NewBuilder(apk.Manifest{Package: "com.fixture.keys", VersionCode: 3, MinSDK: 24})
	d := &dex.Dex{Classes: []dex.Class{{
		Name: "Lcom/fixture/Main;",
		Methods: []dex.Method{{Name: "init", Calls: []string{
			"Lorg/tensorflow/lite/Interpreter;-><init>(Ljava/nio/ByteBuffer;)V",
			"Lcom/google/mlkit/vision/face/FaceDetection;->getClient()",
		}}},
	}}}
	b.SetDex(d.Encode())
	b.AddNativeLib("arm64-v8a", "libncnn.so", dex.EncodeNativeLib(dex.NativeLib{
		SoName: "libncnn.so", Symbols: []string{"ncnn_net_load_param"},
	}))
	for name, data := range fx.tflite {
		b.AddAsset("models/"+name, data)
	}
	for name, data := range fx.ncnn {
		b.AddRaw("res/raw/"+name, data)
	}
	var err error
	if fx.apk, err = b.Build(); err != nil {
		tb.Fatal(err)
	}
	fx.wantPayload = map[PayloadHash]bool{
		HashPayload("tflite", fx.tflite): true,
		HashPayload("ncnn", fx.ncnn):     true,
	}
	return fx
}

func flipBit(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 1 << (i % 8)
	return out
}

// TestAPKKeyCoversWhatExtractionReads flips one bit at every k-th byte of
// the fixture. Each flip must change the report key, fall back to the
// raw-bytes key, or leave a report DeepEqual to the fixture's: equal keys
// imply equal reports.
func TestAPKKeyCoversWhatExtractionReads(t *testing.T) {
	fx := buildKeyFixture(t)
	want, err := ExtractAPK(fx.apk)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Models) != 2 || len(want.CloudAPIs) == 0 || len(want.Frameworks) < 2 {
		t.Fatalf("degenerate fixture report: %+v", want)
	}
	key := HashAPK(fx.apk)
	if key == rawKey(fx.apk) {
		t.Fatal("the fixture keys over its raw bytes")
	}
	const k = 7
	var changed, raw, same int
	for i := 0; i < len(fx.apk); i += k {
		b := flipBit(fx.apk, i)
		switch got := HashAPK(b); {
		case got != key:
			changed++
			if got == rawKey(b) {
				raw++
			}
		default:
			same++
			rep, err := ExtractAPK(b)
			if err != nil {
				t.Fatalf("flip at byte %d keeps the key, but extraction fails: %v", i, err)
			}
			if !reflect.DeepEqual(rep, want) {
				t.Fatalf("flip at byte %d keeps the key, but changes the report", i)
			}
		}
	}
	t.Logf("%d flips: %d changed the key (%d to the raw-bytes key), %d kept it and the report", changed+same, changed, raw, same)
	if same == 0 || raw == 0 || changed == raw {
		t.Fatal("the flips missed a case: each of the three should occur")
	}
}

// recordingCache is a DecodeCache that notes the payload keys it is asked
// for.
type recordingCache struct {
	*testDecodeCache
	keys map[PayloadHash]bool
}

func (c *recordingCache) Payload(ctx context.Context, h PayloadHash, decode func() (*graph.Graph, error)) (graph.Checksum, bool, error) {
	c.keys[h] = true
	return c.testDecodeCache.Payload(ctx, h, decode)
}

// TestPayloadKeysMatchHashPayload: the payload keys extraction builds from
// its entries' digests are the keys HashPayload computes over the same
// files, whether or not the report key was taken first.
func TestPayloadKeysMatchHashPayload(t *testing.T) {
	fx := buildKeyFixture(t)
	for _, keyFirst := range []bool{false, true} {
		rc := &recordingCache{testDecodeCache: newTestDecodeCache(), keys: map[PayloadHash]bool{}}
		a := OpenAPK(fx.apk)
		if keyFirst {
			a.Key()
		}
		if _, err := a.Extract(context.Background(), rc); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rc.keys, fx.wantPayload) {
			t.Fatalf("key first %v: the cache saw payload keys %v, HashPayload gives %v", keyFirst, rc.keys, fx.wantPayload)
		}
	}
}

// TestHashAPKDomainSeparated: bytes that are no APK, and an APK cut
// short, key over themselves under the raw domain, apart from the entry
// walk's domain; the key depends on the bytes alone.
func TestHashAPKDomainSeparated(t *testing.T) {
	data := []byte("identical bytes")
	if HashAPK(data) != HashAPK(append([]byte(nil), data...)) {
		t.Fatal("HashAPK must be content-deterministic")
	}
	if HashAPK(data) == HashAPK([]byte("different")) {
		t.Fatal("distinct contents must hash apart")
	}
	fx := buildKeyFixture(t)
	for name, b := range map[string][]byte{
		"junk":      data,
		"empty":     nil,
		"truncated": fx.apk[:len(fx.apk)-10],
	} {
		if got := HashAPK(b); got != rawKey(b) {
			t.Errorf("%s: key %x, want the raw-bytes key %x", name, got, rawKey(b))
		}
	}
	if HashAPK(fx.apk) == rawKey(fx.apk) {
		t.Fatal("an APK that opens keys over its raw bytes")
	}
}

// hostileZip64 packages one stored tflite entry whose zip64 directory
// record declares 2^63 bytes: the entry cannot be served zero-copy, and
// reading it must fail instead of panicking.
func hostileZip64(tb testing.TB, model []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	add := func(hdr *zip.FileHeader, data []byte) {
		w, err := zw.CreateRaw(hdr)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			tb.Fatal(err)
		}
	}
	manifest := apk.Manifest{Package: "com.fixture.zip64", VersionCode: 1}.Encode()
	add(&zip.FileHeader{Name: apk.ManifestName, Method: zip.Store, CRC32: crc32.ChecksumIEEE(manifest),
		CompressedSize64: uint64(len(manifest)), UncompressedSize64: uint64(len(manifest))}, manifest)
	add(&zip.FileHeader{Name: "assets/m.tflite", Method: zip.Store, CRC32: crc32.ChecksumIEEE(model),
		CompressedSize64: 1 << 63, UncompressedSize64: 1 << 63}, model)
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// apkKeySeeds builds FuzzAPKKey's seed corpus: APKs from the smallest zoo
// models, the hostile zip64 size, and truncations.
func apkKeySeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	fx := buildKeyFixture(tb)
	b := apk.NewBuilder(apk.Manifest{Package: "com.fixture.caffe", VersionCode: 1})
	for name, data := range smallModelFiles(tb, zoo.TaskCrashDetection, "caffe") {
		b.AddAsset("nets/"+name, data)
	}
	caffe, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	var tfl []byte
	for _, data := range fx.tflite {
		tfl = data
	}
	return map[string][]byte{
		"tflite-ncnn-dex-lib": fx.apk,
		"caffe-pair":          caffe,
		"zip64-hostile-size":  hostileZip64(tb, tfl),
		"truncated-half":      fx.apk[:len(fx.apk)/2],
		"truncated-directory": fx.apk[:len(fx.apk)-10],
	}
}

func seedFile(data []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data))
}

// TestAPKKeySeedsCurrent keeps testdata/fuzz/FuzzAPKKey equal to what
// apkKeySeeds builds; -update rewrites it.
func TestAPKKeySeedsCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzAPKKey")
	seeds := apkKeySeeds(t)
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	if *updateSeeds {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if err := os.WriteFile(filepath.Join(dir, name), seedFile(seeds[name]), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range names {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%v (rewrite the seeds with go test -run TestAPKKeySeedsCurrent -update)", err)
		}
		if !bytes.Equal(got, seedFile(seeds[name])) {
			t.Errorf("seed %s is stale (rewrite the seeds with go test -run TestAPKKeySeedsCurrent -update)", name)
		}
	}
	r, err := apk.Open(seeds["zip64-hostile-size"])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadFile("assets/m.tflite"); err == nil {
		t.Fatal("the zip64 seed's 2^63-byte entry reads")
	}
}

// FuzzAPKKey holds the open-once APK to its contract on arbitrary bytes:
// opening, keying and extracting never panic, the key depends on the
// bytes alone, and when the key walk and the cached extraction both
// succeed, the report is the one cache-less ExtractAPK returns, graphs
// aside. The seeds are testdata/fuzz/FuzzAPKKey (see apkKeySeeds).
func FuzzAPKKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a := OpenAPK(data)
		key := a.Key()
		rep, err := a.Extract(context.Background(), newTestDecodeCache())
		if again := HashAPK(data); again != key {
			t.Fatalf("key %x, then %x over the same bytes", key, again)
		}
		if key == rawKey(data) || err != nil {
			return
		}
		plain, err := ExtractAPK(data)
		if err != nil {
			t.Fatalf("the key walk and cached extraction succeed, ExtractAPK fails: %v", err)
		}
		for i := range plain.Models {
			plain.Models[i].Graph = nil
		}
		if !reflect.DeepEqual(plain, rep) {
			t.Fatalf("cached report %+v, ExtractAPK's %+v", rep, plain)
		}
	})
}

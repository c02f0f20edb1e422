package apk

import (
	"bytes"
	"strings"
	"testing"
)

func sampleManifest() Manifest {
	return Manifest{
		Package:     "com.example.camera",
		VersionCode: 42,
		MinSDK:      26,
		Permissions: []string{"android.permission.CAMERA", "android.permission.INTERNET"},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := sampleManifest()
	got, err := ParseManifest(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Package != m.Package || got.VersionCode != 42 || got.MinSDK != 26 {
		t.Fatalf("round trip: %+v", got)
	}
	if len(got.Permissions) != 2 {
		t.Fatalf("permissions: %v", got.Permissions)
	}
}

func TestManifestErrors(t *testing.T) {
	if _, err := ParseManifest([]byte("versionCode: 1\n")); err == nil {
		t.Fatal("missing package should fail")
	}
	if _, err := ParseManifest([]byte("garbage line without colon space\n")); err == nil {
		t.Fatal("malformed line should fail")
	}
	if _, err := ParseManifest([]byte("package: a\nversionCode: NaN\n")); err == nil {
		t.Fatal("bad versionCode should fail")
	}
}

func TestAPKBuildAndOpen(t *testing.T) {
	model := bytes.Repeat([]byte{0xAB}, 4096)
	apk, err := NewBuilder(sampleManifest()).
		SetDex([]byte("dex\n035\x00....")).
		AddAsset("models/detector.tflite", model).
		AddNativeLib("arm64-v8a", "libtensorflowlite.so", []byte{0x7f, 'E', 'L', 'F'}).
		AddRaw("res/layout/main.xml", []byte("<layout/>")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(apk)
	if err != nil {
		t.Fatal(err)
	}
	if r.Manifest().Package != "com.example.camera" {
		t.Fatalf("manifest: %+v", r.Manifest())
	}
	if _, err := r.Dex(); err != nil {
		t.Fatalf("dex: %v", err)
	}
	got, err := r.ReadFile("assets/models/detector.tflite")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Fatal("asset bytes corrupted")
	}
	if assets := r.Assets(); len(assets) != 1 || assets[0] != "assets/models/detector.tflite" {
		t.Fatalf("Assets = %v", assets)
	}
	if libs := r.NativeLibs(); len(libs) != 1 || !strings.Contains(libs[0], "arm64-v8a") {
		t.Fatalf("NativeLibs = %v", libs)
	}
	if len(r.Names()) != 5 { // manifest + dex + asset + lib + res
		t.Fatalf("Names = %v", r.Names())
	}
}

func TestAPKMissingEntry(t *testing.T) {
	apk, err := NewBuilder(sampleManifest()).Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(apk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadFile("nope"); err == nil {
		t.Fatal("missing entry should fail")
	}
	if _, err := r.Dex(); err == nil {
		t.Fatal("missing dex should fail")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	if _, err := Open([]byte("not a zip")); err == nil {
		t.Fatal("garbage should fail")
	}
}

func TestAPKSizeLimit(t *testing.T) {
	// Incompressible (stored) payload beyond 100 MB must be rejected.
	big := make([]byte, MaxBaseAPKSize+1024)
	for i := range big {
		big[i] = byte(i * 31)
	}
	_, err := NewBuilder(sampleManifest()).AddAsset("models/huge.tflite", big).Build()
	if err == nil {
		t.Fatal("oversized apk must be rejected")
	}
	if !strings.Contains(err.Error(), "OBB or asset packs") {
		t.Fatalf("error should point at companion channels: %v", err)
	}
}

func TestModelAssetsStoredUncompressed(t *testing.T) {
	if !storeUncompressed("assets/m.tflite") || !storeUncompressed("lib/arm64-v8a/libfoo.so") {
		t.Fatal("model assets and libs must be stored")
	}
	if storeUncompressed("assets/config.json") || storeUncompressed("res/values.xml") {
		t.Fatal("text entries should compress")
	}
}

func TestStoredEntryZeroCopy(t *testing.T) {
	model := bytes.Repeat([]byte{0xCD}, 8192)
	apkBytes, err := NewBuilder(sampleManifest()).
		AddAsset("models/det.tflite", model).
		AddRaw("res/strings.xml", []byte("<resources/>")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(apkBytes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadFile("assets/models/det.tflite")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Fatal("stored entry corrupted")
	}
	// The returned slice must alias the APK buffer (zero-copy), not a copy.
	off := bytes.Index(apkBytes, model)
	if off < 0 {
		t.Fatal("stored payload not found verbatim in the archive")
	}
	if &got[0] != &apkBytes[off] {
		t.Fatal("stored entry read is not a subslice of the APK buffer")
	}
	// Deflated entries still round-trip through the copying path.
	res, err := r.ReadFile("res/strings.xml")
	if err != nil {
		t.Fatal(err)
	}
	if string(res) != "<resources/>" {
		t.Fatalf("deflated entry = %q", res)
	}
}

func TestEntriesLazyIteration(t *testing.T) {
	apkBytes, err := NewBuilder(sampleManifest()).
		AddAsset("models/a.tflite", bytes.Repeat([]byte{1}, 512)).
		AddRaw("res/x.xml", []byte("<x/>")).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(apkBytes)
	if err != nil {
		t.Fatal(err)
	}
	entries := r.Entries()
	if len(entries) != len(r.Names()) {
		t.Fatalf("Entries = %d, Names = %d", len(entries), len(r.Names()))
	}
	var sawStored, sawDeflated bool
	for i := range entries {
		e := &entries[i]
		switch e.Name() {
		case "assets/models/a.tflite":
			if !e.Stored() {
				t.Fatal("model asset should be stored")
			}
			if e.Size() != 512 {
				t.Fatalf("Size = %d", e.Size())
			}
			sawStored = true
		case "res/x.xml":
			if e.Stored() {
				t.Fatal("xml should be deflated")
			}
			sawDeflated = true
		}
		if _, err := e.Data(); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
	}
	if !sawStored || !sawDeflated {
		t.Fatal("fixture must cover both entry kinds")
	}
}

// Reading a stored entry is the extraction hot path: it must not copy the
// payload, so at most one (in practice zero) allocation per read.
func TestReadFileStoredAllocs(t *testing.T) {
	apkBytes, err := NewBuilder(sampleManifest()).
		AddAsset("models/det.tflite", bytes.Repeat([]byte{7}, 1<<16)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(apkBytes)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.ReadFile("assets/models/det.tflite"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("ReadFile on stored entry allocates %v per run, want <= 1", allocs)
	}
}

func TestStoredEntryCorruptionDetected(t *testing.T) {
	model := bytes.Repeat([]byte{0xEE}, 4096)
	apkBytes, err := NewBuilder(sampleManifest()).
		AddAsset("models/det.tflite", model).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in place: sizes stay consistent, CRC must not.
	off := bytes.Index(apkBytes, model)
	if off < 0 {
		t.Fatal("payload not found")
	}
	apkBytes[off+100] ^= 0xFF
	r, err := Open(apkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadFile("assets/models/det.tflite"); err == nil {
		t.Fatal("corrupted stored entry must fail the CRC check")
	}
}

package extract

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/gaugenn/gaugenn/internal/cloudml"
	"github.com/gaugenn/gaugenn/internal/errs"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
	"github.com/gaugenn/gaugenn/internal/playstore"
	"github.com/gaugenn/gaugenn/internal/store"
)

// extractFixtureReport extracts a real file set in process (no decode
// cache), so the resulting models carry decoded graphs.
func extractFixtureReport(t *testing.T) *Report {
	t.Helper()
	fs, _ := buildModelFiles(t, zoo.TaskFaceDetection, 3, "tflite")
	files := map[string][]byte{}
	for name, data := range fs {
		files["assets/"+name] = data
	}
	rep := extractFiles(files)
	if len(rep.Models) == 0 || rep.Models[0].Graph == nil {
		t.Fatal("fixture extraction produced no decoded models")
	}
	rep.Package = "com.fixture.app"
	return rep
}

func fullReport() *Report {
	return &Report{
		Package: "com.example.app",
		Models: []Model{
			{Path: "assets/detector.tflite", Framework: "tflite", Checksum: "aabb01", FileBytes: 1234},
			{Path: "assets/net.param", Framework: "ncnn", Checksum: "ccdd02", FileBytes: 99},
		},
		CandidateFiles:   5,
		FailedValidation: []string{"assets/enc.model"},
		Frameworks:       []string{"ncnn", "tflite"},
		CloudAPIs: []cloudml.Detection{
			{Provider: "google", API: "mlkit-vision", File: "com/example/A.smali"},
		},
		UsesNNAPI:         true,
		UsesXNNPACK:       true,
		UsesSNPE:          false,
		LazyModelDownload: true,
		OnDeviceTraining:  false,
	}
}

func TestReportCodecRoundTrip(t *testing.T) {
	rep := fullReport()
	data, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, got) {
		t.Fatalf("round trip changed the report:\n%+v\n%+v", rep, got)
	}
}

func TestReportCodecByteStable(t *testing.T) {
	rep := fullReport()
	first, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeReport(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := EncodeReport(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("encode(decode(encode)) not byte-stable:\n%s\n%s", first, second)
	}
}

func TestReportCodecDropsGraphs(t *testing.T) {
	// Reports persisted to the store must never carry decoded graphs —
	// the analysis CAS owns decoded data, keyed by checksum.
	rep := extractFixtureReport(t)
	data, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range got.Models {
		if m.Graph != nil {
			t.Fatalf("model %s decoded with a graph", m.Path)
		}
	}
	// Everything except graphs survives.
	if got.Package != rep.Package || len(got.Models) != len(rep.Models) {
		t.Fatalf("lossy codec: %+v vs %+v", got, rep)
	}
	for i := range got.Models {
		if got.Models[i].Checksum != rep.Models[i].Checksum {
			t.Fatalf("model %d checksum mismatch", i)
		}
	}
}

func TestReportCodecVersionGate(t *testing.T) {
	if _, err := DecodeReport([]byte(`{"v":99,"package":"x"}`)); err == nil {
		t.Fatal("future codec version must not decode")
	}
	if _, err := DecodeReport([]byte(`not json`)); err == nil {
		t.Fatal("garbage must not decode")
	}
}

func TestHashAPKDomainSeparated(t *testing.T) {
	data := []byte("identical bytes")
	a := HashAPK(data)
	b := HashAPK(append([]byte(nil), data...))
	if a != b {
		t.Fatal("HashAPK must be content-deterministic")
	}
	if a == HashAPK([]byte("different")) {
		t.Fatal("distinct contents must hash apart")
	}
}

// realAPKRecord builds the record a study run persists for a small
// generated snapshot: each ML app's recipe mapped to its APK's HashAPK.
func realAPKRecord(tb testing.TB) APKRecord {
	tb.Helper()
	study, err := playstore.GenerateStudy(playstore.DefaultConfig(5, 0.01))
	if err != nil {
		tb.Fatal(err)
	}
	rec := APKRecord{}
	for _, a := range study.Snap21.Apps {
		if !a.HasML() {
			continue
		}
		data, err := study.Snap21.BuildAPK(a)
		if err != nil {
			tb.Fatal(err)
		}
		r, h := study.Snap21.APKRecipe(a), HashAPK(data)
		rec[store.HexKey(r[:])] = store.HexKey(h[:])
		if len(rec) == 3 {
			break
		}
	}
	return rec
}

func TestAPKRecordRoundTripByteStable(t *testing.T) {
	rec := realAPKRecord(t)
	first, err := EncodeAPKRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAPKRecord(first)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, got) {
		t.Fatalf("round trip changed the record:\n%v\n%v", rec, got)
	}
	second, err := EncodeAPKRecord(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("encode(decode(encode)) not byte-stable")
	}
	empty, err := EncodeAPKRecord(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeAPKRecord(empty); err != nil || len(got) != 0 {
		t.Fatalf("empty record: %v, %v", got, err)
	}
}

func TestAPKRecordRejectsCorruptTyped(t *testing.T) {
	rec := realAPKRecord(t)
	good, err := EncodeAPKRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	var recipe string
	for recipe = range rec {
		break
	}
	badKey, _ := store.SealJSON(apkRecordWire{V: apkRecordCodecVersion, APKs: APKRecord{recipe: "not-hex"}})
	badRecipe, _ := store.SealJSON(apkRecordWire{V: apkRecordCodecVersion, APKs: APKRecord{"ABCD": rec[recipe]}})
	oldVersion, _ := store.SealJSON(apkRecordWire{V: apkRecordCodecVersion + 1, APKs: rec})
	wrongShape, _ := store.SealJSON(map[string]any{"v": apkRecordCodecVersion, "apks": 7})
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x01
	for name, data := range map[string][]byte{
		"bit flip": flipped, "truncated": good[:len(good)-3], "empty": nil, "unsealed": []byte(`{"v":1,"apks":{}}`),
		"bad report key": badKey, "bad recipe": badRecipe, "other version": oldVersion, "wrong shape": wrongShape,
	} {
		if _, err := DecodeAPKRecord(data); !errors.Is(err, errs.ErrStoreCorrupt) {
			t.Errorf("%s: err = %v, want errs.ErrStoreCorrupt", name, err)
		}
	}
}

// FuzzDecodeAPKRecord holds the record decoder to its contract on
// arbitrary bytes: no panic, every rejection typed as store corruption,
// and whatever it accepts survives a re-encode unchanged.
func FuzzDecodeAPKRecord(f *testing.F) {
	good, err := EncodeAPKRecord(realAPKRecord(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"sum":"","body":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeAPKRecord(data)
		if err != nil {
			if !errors.Is(err, errs.ErrStoreCorrupt) {
				t.Fatalf("untyped rejection: %v", err)
			}
			return
		}
		again, err := EncodeAPKRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeAPKRecord(again)
		if err != nil || !reflect.DeepEqual(rec, back) {
			t.Fatalf("accepted record does not round-trip: %v", err)
		}
	})
}

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

// realAPKRecord builds the record a study run persists for a small
// generated snapshot: three ML apps' recipes mapped to their APKs'
// HashAPK, and a fourth recipe failed with the size check's message.
func realAPKRecord(tb testing.TB) APKRecord {
	tb.Helper()
	study, err := playstore.GenerateStudy(playstore.DefaultConfig(5, 0.01))
	if err != nil {
		tb.Fatal(err)
	}
	rec := NewAPKRecord()
	for _, a := range study.Snap21.Apps {
		if !a.HasML() {
			continue
		}
		r := study.Snap21.APKRecipe(a)
		if len(rec.Keys) == 3 {
			rec.Failed[store.HexKey(r[:])] = "apk: base apk is 104857601 bytes, exceeds the 104857600 Play Store limit"
			break
		}
		data, err := study.Snap21.BuildAPK(a)
		if err != nil {
			tb.Fatal(err)
		}
		h := HashAPK(data)
		rec.Keys[store.HexKey(r[:])] = store.HexKey(h[:])
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
	empty, err := EncodeAPKRecord(APKRecord{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeAPKRecord(empty); err != nil || !reflect.DeepEqual(got, NewAPKRecord()) {
		t.Fatalf("empty record: %v, %v", got, err)
	}
}

func TestAPKRecordRejectsCorruptTyped(t *testing.T) {
	rec := realAPKRecord(t)
	good, err := EncodeAPKRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	var recipe, failed string
	for recipe = range rec.Keys {
		break
	}
	for failed = range rec.Failed {
		break
	}
	seal := func(w apkRecordWire) []byte {
		data, err := store.SealJSON(w)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	v := apkRecordCodecVersion
	key := rec.Keys[recipe]
	md5Key := seal(apkRecordWire{V: 1, APKs: map[string]string{recipe: key}})
	wrongShape, err := store.SealJSON(map[string]any{"v": v, "apks": 7})
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"bit flip":        flipBit(good, len(good)/2),
		"truncated":       good[:len(good)-3],
		"empty":           nil,
		"unsealed":        []byte(`{"v":2,"apks":{}}`),
		"bad report key":  seal(apkRecordWire{V: v, APKs: map[string]string{recipe: "not-hex"}}),
		"long report key": seal(apkRecordWire{V: v, APKs: map[string]string{recipe: key + key}}),
		"bad recipe":      seal(apkRecordWire{V: v, APKs: map[string]string{"ABCD": key}}),
		"bad failed":      seal(apkRecordWire{V: v, APKs: rec.Keys, Failed: map[string]string{"ABCD": "x"}}),
		"empty failure":   seal(apkRecordWire{V: v, APKs: rec.Keys, Failed: map[string]string{failed: ""}}),
		"packaged failed": seal(apkRecordWire{V: v, APKs: rec.Keys, Failed: map[string]string{recipe: "x"}}),
		"other version":   seal(apkRecordWire{V: v + 1, APKs: rec.Keys}),
		"version 1":       md5Key,
		"wrong shape":     wrongShape,
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

package extract

import (
	"context"
	"testing"

	"github.com/gaugenn/gaugenn/internal/android/apk"
	"github.com/gaugenn/gaugenn/internal/android/dex"
	"github.com/gaugenn/gaugenn/internal/nn/formats"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
	"github.com/gaugenn/gaugenn/internal/playstore"
)

func buildModelFiles(t *testing.T, task zoo.Task, seed int64, fw string) (formats.FileSet, *graph.Graph) {
	t.Helper()
	g, err := zoo.Build(zoo.Spec{Task: task, Seed: seed, Hinted: true})
	if err != nil {
		t.Fatal(err)
	}
	f, ok := formats.ByName(fw)
	if !ok {
		t.Fatalf("unknown framework %s", fw)
	}
	fs, err := f.Encode(g, g.Name)
	if err != nil {
		t.Fatal(err)
	}
	return fs, g
}

// extractFiles runs extraction over an in-memory file map, so tests can
// hand the extractor an app's contents without packaging an APK.
func extractFiles(files map[string][]byte) *Report {
	entries := make([]*entry, 0, len(files))
	for n, d := range files {
		entries = append(entries, &entry{name: n, data: d, loaded: true})
	}
	// bytes() cannot fail on pre-loaded entries, so the error is impossible.
	rep, _ := extractEntries(context.Background(), entries, nil)
	return rep
}

func TestExtractAPKFindsModels(t *testing.T) {
	tfl, g1 := buildModelFiles(t, zoo.TaskFaceDetection, 1, "tflite")
	caffeFS, g2 := buildModelFiles(t, zoo.TaskPhotoBeauty, 2, "caffe")

	b := apk.NewBuilder(apk.Manifest{Package: "com.test.app", VersionCode: 1, MinSDK: 24})
	d := &dex.Dex{Classes: []dex.Class{{
		Name: "Lcom/test/Main;",
		Methods: []dex.Method{{Name: "init", Calls: []string{
			"Lorg/tensorflow/lite/Interpreter;-><init>(Ljava/nio/ByteBuffer;)V",
		}}},
	}}}
	b.SetDex(d.Encode())
	for name, data := range tfl {
		b.AddAsset("models/"+name, data)
	}
	for name, data := range caffeFS {
		b.AddAsset("nets/"+name, data)
	}
	b.AddNativeLib("arm64-v8a", "libncnn.so", dex.EncodeNativeLib(dex.NativeLib{
		SoName: "libncnn.so", Symbols: []string{"ncnn_net_load_param"},
	}))
	apkBytes, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	rep, err := ExtractAPK(apkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Package != "com.test.app" {
		t.Fatalf("package = %s", rep.Package)
	}
	if len(rep.Models) != 2 {
		t.Fatalf("models = %d (%+v)", len(rep.Models), rep.FailedValidation)
	}
	byFW := map[string]graph.Checksum{}
	for _, m := range rep.Models {
		byFW[m.Framework] = m.Checksum
	}
	if byFW["tflite"] != graph.ModelChecksum(g1) {
		t.Error("tflite checksum mismatch")
	}
	if byFW["caffe"] != graph.ModelChecksum(g2) {
		t.Error("caffe checksum mismatch")
	}
	// Framework detection: tflite via dex, ncnn via native lib, caffe via
	// model payload.
	want := map[string]bool{"tflite": true, "ncnn": true, "caffe": true}
	for _, fw := range rep.Frameworks {
		delete(want, fw)
	}
	if len(want) != 0 {
		t.Fatalf("missing frameworks: %v (got %v)", want, rep.Frameworks)
	}
}

func TestExtractRejectsEncrypted(t *testing.T) {
	tfl, _ := buildModelFiles(t, zoo.TaskObjectDetection, 3, "tflite")
	files := map[string][]byte{}
	for name, data := range tfl {
		enc := make([]byte, len(data))
		for i := range data {
			enc[i] = data[i] ^ 0x77
		}
		files["assets/models/"+name] = enc
	}
	rep := extractFiles(files)
	if len(rep.Models) != 0 {
		t.Fatal("encrypted model should not validate")
	}
	if len(rep.FailedValidation) == 0 {
		t.Fatal("encrypted model should be recorded as failed validation")
	}
	if rep.CandidateFiles == 0 {
		t.Fatal("encrypted file should still match the extension pre-screen")
	}
}

func TestExtractMultiFileGrouping(t *testing.T) {
	nc, g := buildModelFiles(t, zoo.TaskKeywordDetection, 4, "ncnn")
	files := map[string][]byte{}
	for name, data := range nc {
		files["assets/ml/"+name] = data
	}
	rep := extractFiles(files)
	if len(rep.Models) != 1 {
		t.Fatalf("ncnn param+bin should decode as one model, got %d (failed: %v)", len(rep.Models), rep.FailedValidation)
	}
	if rep.Models[0].Checksum != graph.ModelChecksum(g) {
		t.Fatal("ncnn checksum mismatch")
	}
	if rep.Models[0].FileBytes == 0 {
		t.Fatal("file bytes not counted")
	}
}

func TestExtractDetectsAcceleration(t *testing.T) {
	d := &dex.Dex{Classes: []dex.Class{{
		Name: "Lcom/x/Main;",
		Methods: []dex.Method{{Name: "a", Calls: []string{
			"Lorg/tensorflow/lite/nnapi/NnApiDelegate;-><init>()V",
			"Lorg/tensorflow/lite/Interpreter$Options;->setUseXNNPACK(Z)",
			"Lcom/qualcomm/qti/snpe/SNPE$NeuralNetworkBuilder;->build()",
			"Lcom/example/ml/ModelDownloader;->fetchModel(Ljava/lang/String;)",
		}}},
	}}}
	rep := extractFiles(map[string][]byte{"classes.dex": d.Encode()})
	if !rep.UsesNNAPI || !rep.UsesXNNPACK || !rep.UsesSNPE || !rep.LazyModelDownload {
		t.Fatalf("acceleration flags: %+v", rep)
	}
	if !rep.HasMLLibrary() {
		t.Fatal("tflite call should mark ML library")
	}
}

func TestExtractDetectsOnDeviceTraining(t *testing.T) {
	// Negative control for the Section 4.5 null result: the detector must
	// fire when TFLiteTransferConverter traces exist.
	d := &dex.Dex{Classes: []dex.Class{{
		Name: "Lcom/x/Trainer;",
		Methods: []dex.Method{{Name: "personalise", Calls: []string{
			"Lorg/tensorflow/lite/transfer/TransferLearningModel;->train()",
		}}},
	}}}
	rep := extractFiles(map[string][]byte{"classes.dex": d.Encode()})
	if !rep.OnDeviceTraining {
		t.Fatal("training trace not detected")
	}
	// And the in-the-wild population never carries it.
	plain := &dex.Dex{Classes: []dex.Class{{
		Name:    "Lcom/x/Plain;",
		Methods: []dex.Method{{Name: "infer", Calls: []string{"Lorg/tensorflow/lite/Interpreter;->run()"}}},
	}}}
	rep2 := extractFiles(map[string][]byte{"classes.dex": plain.Encode()})
	if rep2.OnDeviceTraining {
		t.Fatal("false positive training trace")
	}
}

func TestExtractFromOBB(t *testing.T) {
	// OBB contents run through the same extraction path; the paper's
	// pipeline checks expansion files even though it finds nothing there.
	nc, g := buildModelFiles(t, zoo.TaskPoseEstimation, 44, "tflite")
	obbFiles := map[string][]byte{}
	for name, data := range nc {
		obbFiles["models/"+name] = data
	}
	obb := apk.OBB{Package: "com.x", VersionCode: 7, Main: true, Files: obbFiles}
	enc, err := obb.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := apk.DecodeOBB(enc)
	if err != nil {
		t.Fatal(err)
	}
	rep := extractFiles(decoded)
	if len(rep.Models) != 1 {
		t.Fatalf("OBB extraction found %d models", len(rep.Models))
	}
	if rep.Models[0].Checksum != graph.ModelChecksum(g) {
		t.Fatal("OBB model checksum mismatch")
	}
}

func TestExtractCloudAPIs(t *testing.T) {
	d := &dex.Dex{Classes: []dex.Class{{
		Name: "Lcom/x/Cloud;",
		Methods: []dex.Method{{Name: "a", Calls: []string{
			"Lcom/google/mlkit/vision/face/FaceDetection;->getClient()",
			"Lcom/amazonaws/services/polly/AmazonPollyPresigningClient;-><init>",
		}}},
	}}}
	rep := extractFiles(map[string][]byte{"classes.dex": d.Encode()})
	if len(rep.CloudAPIs) != 2 {
		t.Fatalf("cloud APIs = %+v", rep.CloudAPIs)
	}
}

func TestExtractIgnoresNonCandidates(t *testing.T) {
	rep := extractFiles(map[string][]byte{
		"assets/readme.txt": []byte("hello"),
		"assets/icon.png":   []byte{0x89, 'P', 'N', 'G'},
	})
	if rep.CandidateFiles != 0 || len(rep.Models) != 0 || len(rep.FailedValidation) != 0 {
		t.Fatalf("non-candidates misprocessed: %+v", rep)
	}
}

func TestExtractAPKBadZip(t *testing.T) {
	if _, err := ExtractAPK([]byte("junk")); err == nil {
		t.Fatal("bad apk should fail")
	}
}

// Integration: every generated ML app's APK round-trips through extraction
// with the expected model count and framework set.
func TestExtractAgainstGeneratedStore(t *testing.T) {
	study, err := playstore.GenerateStudy(playstore.DefaultConfig(11, 0.03))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, a := range study.Snap21.Apps {
		if len(a.Models) == 0 {
			continue
		}
		apkBytes, err := study.Snap21.BuildAPK(a)
		if err != nil {
			t.Fatalf("%s: %v", a.Package, err)
		}
		rep, err := ExtractAPK(apkBytes)
		if err != nil {
			t.Fatalf("%s: %v", a.Package, err)
		}
		wantValid := 0
		for _, m := range a.Models {
			if !m.Encrypted {
				wantValid++
			}
		}
		if len(rep.Models) != wantValid {
			t.Errorf("%s: extracted %d models, shipped %d valid (failed: %v)",
				a.Package, len(rep.Models), wantValid, rep.FailedValidation)
		}
		if a.UsesNNAPI != rep.UsesNNAPI || a.UsesXNNPACK != rep.UsesXNNPACK {
			t.Errorf("%s: acceleration flags mismatch", a.Package)
		}
		checked++
		if checked >= 12 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no ML apps checked")
	}
}

func TestStemOf(t *testing.T) {
	cases := map[string]string{
		"assets/models/det.tflite":     "assets/models/det",
		"assets/net.cfg.ncnn":          "assets/net",
		"assets/w.pth.tar":             "assets/w",
		"assets/models/m.param":        "assets/models/m",
		"assets/models/m.bin":          "assets/models/m",
		"plain":                        "plain",
		"assets/dir.with.dots/m.dlc":   "assets/dir.with.dots/m",
		"assets/UPPER.WEIGHTS.NCNN":    "assets/UPPER",
		"assets/.hidden":               "assets/.hidden",
		"assets/models/detector.v2.pb": "assets/models/detector.v2",
	}
	for in, want := range cases {
		if got := stemOf(in); got != want {
			t.Errorf("stemOf(%q) = %q, want %q", in, got, want)
		}
	}
}

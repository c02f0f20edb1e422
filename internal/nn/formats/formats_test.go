package formats

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
)

// buildSample returns a representative model for round-trip testing.
func buildSample(t *testing.T, task zoo.Task, seed int64) *graph.Graph {
	t.Helper()
	g, err := zoo.Build(zoo.Spec{Task: task, Seed: seed, Hinted: true})
	if err != nil {
		t.Fatalf("zoo build: %v", err)
	}
	return g
}

func TestRegistryContainsAllFormats(t *testing.T) {
	want := []string{"tflite", "caffe", "ncnn", "tf", "onnx", "snpe"}
	names := Names()
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("format %q not registered (have %v)", w, names)
		}
	}
	if len(All()) != len(names) {
		t.Fatal("All and Names disagree")
	}
	if _, ok := ByName("tflite"); !ok {
		t.Fatal("ByName(tflite) failed")
	}
	if _, ok := ByName("bogus"); ok {
		t.Fatal("ByName(bogus) should fail")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	Register(TFLite{})
}

func TestRoundTripAllFormats(t *testing.T) {
	tasks := []zoo.Task{zoo.TaskObjectDetection, zoo.TaskAutoComplete, zoo.TaskSoundRecognition}
	for _, f := range All() {
		f := f
		for _, task := range tasks {
			t.Run(f.Name()+"/"+task.String(), func(t *testing.T) {
				g := buildSample(t, task, int64(task)*3+1)
				files, err := f.Encode(g, "m")
				if err != nil {
					t.Fatalf("encode: %v", err)
				}
				if len(files) == 0 {
					t.Fatal("no files produced")
				}
				got, err := f.Decode(files)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if got.Name != g.Name {
					t.Errorf("name %q != %q", got.Name, g.Name)
				}
				if graph.ModelChecksum(got) != graph.ModelChecksum(g) {
					t.Error("round trip changed model checksum")
				}
				if len(got.Layers) != len(g.Layers) {
					t.Errorf("layer count %d != %d", len(got.Layers), len(g.Layers))
				}
				// Profiles must agree: analysis runs on decoded graphs.
				p1, err := graph.ProfileGraph(g)
				if err != nil {
					t.Fatal(err)
				}
				p2, err := graph.ProfileGraph(got)
				if err != nil {
					t.Fatal(err)
				}
				if p1.FLOPs != p2.FLOPs || p1.Params != p2.Params {
					t.Errorf("profile mismatch: %d/%d vs %d/%d", p1.FLOPs, p1.Params, p2.FLOPs, p2.Params)
				}
			})
		}
	}
}

// TestSniffDistinguishesFormats: every file of every registered format's
// encoding of every zoo task (model seeds 1, 3 and 7) is sniffed by that
// format and no other, so the order in which DecodeFile tries formats
// decides nothing for them, and each single-file encoding decodes back to
// its model through DecodeFile.
func TestSniffDistinguishesFormats(t *testing.T) {
	for _, task := range zoo.AllTasks() {
		for _, seed := range []int64{1, 3, 7} {
			g := buildSample(t, task, seed)
			for _, f := range All() {
				files, err := f.Encode(g, "m")
				if err != nil {
					t.Fatal(err)
				}
				for name, data := range files {
					if !f.Sniff(data) {
						t.Errorf("%s seed %d: %s does not sniff its own file %s", task, seed, f.Name(), name)
					}
					for _, other := range All() {
						if other.Name() != f.Name() && other.Sniff(data) {
							t.Errorf("%s seed %d: %s sniffs %s's file %s", task, seed, other.Name(), f.Name(), name)
						}
					}
					if len(files) > 1 {
						continue
					}
					got, ok, err := DecodeFile(data)
					if err != nil || !ok || graph.ModelChecksum(got) != graph.ModelChecksum(g) {
						t.Errorf("%s seed %d: DecodeFile(%s's %s): ok=%v err=%v", task, seed, f.Name(), name, ok, err)
					}
				}
			}
		}
	}
	if _, ok, err := DecodeFile([]byte("no model here")); ok || err != nil {
		t.Fatalf("DecodeFile(garbage): ok=%v err=%v, want no format", ok, err)
	}
}

func TestIdentify(t *testing.T) {
	g := buildSample(t, zoo.TaskImageClassification, 9)
	tfl, _ := ByName("tflite")
	files, err := tfl.Encode(g, "classifier")
	if err != nil {
		t.Fatal(err)
	}
	data := files["classifier.tflite"]

	f, ok := Identify("assets/classifier.tflite", data)
	if !ok || f.Name() != "tflite" {
		t.Fatalf("Identify = %v %v", f, ok)
	}
	// A generic .bin extension with a tflite payload still identifies.
	f, ok = Identify("weights.bin", data)
	if !ok || f.Name() != "tflite" {
		t.Fatalf("Identify(.bin) = %v %v", f, ok)
	}
	// Wrong extension: .txt is not in the table.
	if _, ok := Identify("classifier.txt", data); ok {
		t.Fatal("unknown extension should not identify")
	}
	// Garbage payload with candidate extension: sniff must reject.
	if _, ok := Identify("model.tflite", []byte("not a model at all")); ok {
		t.Fatal("garbage should not identify")
	}
}

func TestIdentifyRejectsEncrypted(t *testing.T) {
	g := buildSample(t, zoo.TaskObjectDetection, 11)
	tfl, _ := ByName("tflite")
	files, err := tfl.Encode(g, "m")
	if err != nil {
		t.Fatal(err)
	}
	enc := append([]byte(nil), files["m.tflite"]...)
	for i := range enc {
		enc[i] ^= 0x5a // simple XOR "encryption"
	}
	if _, ok := Identify("m.tflite", enc); ok {
		t.Fatal("encrypted model must fail validation, as in the paper")
	}
}

func TestDecodeErrors(t *testing.T) {
	g := buildSample(t, zoo.TaskNudityDetection, 13)
	for _, f := range All() {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			files, err := f.Encode(g, "m")
			if err != nil {
				t.Fatal(err)
			}
			// Empty set.
			if _, err := f.Decode(FileSet{}); err == nil {
				t.Error("empty file set should fail")
			}
			// Truncation of every file must produce ErrNotValid (not panic).
			// Text files (.prototxt/.param) tolerate losing a trailing
			// newline, so the one-byte cut only applies to binary files.
			for name, data := range files {
				cuts := []int{1, len(data) / 2}
				if ext := extensionOf(name); ext != ".prototxt" && ext != ".param" {
					cuts = append(cuts, len(data)-1)
				}
				for _, cut := range cuts {
					if cut >= len(data) {
						continue
					}
					trunc := FileSet{}
					for n2, d2 := range files {
						if n2 == name {
							trunc[n2] = d2[:cut]
						} else {
							trunc[n2] = d2
						}
					}
					if _, err := f.Decode(trunc); err == nil {
						t.Errorf("truncating %s to %d bytes should fail", name, cut)
					}
				}
			}
		})
	}
}

func TestDecodeErrorIsErrNotValid(t *testing.T) {
	tfl, _ := ByName("tflite")
	_, err := tfl.Decode(FileSet{"m.tflite": []byte("garbage")})
	if err == nil {
		t.Fatal("garbage should fail")
	}
	if !errors.Is(err, ErrNotValid) {
		t.Fatalf("error should wrap ErrNotValid, got %v", err)
	}
}

func TestCaffeNeedsPrototxt(t *testing.T) {
	g := buildSample(t, zoo.TaskPhotoBeauty, 17)
	caffe, _ := ByName("caffe")
	files, err := caffe.Encode(g, "beauty")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("caffe should produce 2 files, got %d", len(files))
	}
	// Weights alone cannot decode.
	only := FileSet{"beauty.caffemodel": files["beauty.caffemodel"]}
	if _, err := caffe.Decode(only); err == nil {
		t.Fatal("caffemodel without prototxt should fail")
	}
	// Prototxt alone decodes to a weightless skeleton that fails validation
	// (weighted layers declare weights in the caffemodel).
	onlyProto := FileSet{"beauty.prototxt": files["beauty.prototxt"]}
	if g2, err := caffe.Decode(onlyProto); err == nil {
		// Acceptable only if the graph truly has no weights.
		if g2.ParamCount() != g.ParamCount() {
			t.Log("prototxt-only decode yielded weightless skeleton")
		}
	}
}

func TestNCNNLayerCountMismatch(t *testing.T) {
	g := buildSample(t, zoo.TaskKeywordDetection, 19)
	nc, _ := ByName("ncnn")
	files, err := nc.Encode(g, "kw")
	if err != nil {
		t.Fatal(err)
	}
	param := string(files["kw.param"])
	// Corrupt the declared layer count.
	lines := strings.SplitN(param, "\n", 3)
	lines[1] = "999 999"
	files["kw.param"] = []byte(strings.Join(lines, "\n"))
	if _, err := nc.Decode(files); err == nil {
		t.Fatal("layer count mismatch should fail")
	}
}

func TestKnownExtensionsTable(t *testing.T) {
	exts := KnownExtensions()
	// Spot checks against Table 5.
	for _, ext := range []string{".tflite", ".dlc", ".caffemodel", ".param", ".onnx", ".pth.tar", ".feathermodel"} {
		if _, ok := exts[ext]; !ok {
			t.Errorf("extension %s missing from Table 5 table", ext)
		}
	}
	if owners := exts[".pb"]; len(owners) < 4 {
		t.Errorf(".pb should be claimed by many frameworks, got %v", owners)
	}
	if !CandidateExtension("model.tflite") || !CandidateExtension("x/y/net.PARAM") {
		t.Error("candidate extension detection failed")
	}
	if CandidateExtension("readme.md") || CandidateExtension("noext") {
		t.Error("non-candidates misdetected")
	}
	if !CandidateExtension("checkpoint.pth.tar") {
		t.Error("compound extension .pth.tar not detected")
	}
}

func TestAttrsKVRoundTrip(t *testing.T) {
	a := graph.Attrs{
		KernelH: 3, KernelW: 5, StrideH: 2, StrideW: 2, PadSame: true,
		Filters: 32, Units: 64, Axis: 3, TargetH: 14, TargetW: 14,
		TimeSteps: 10, VocabSize: 1000, Fused: graph.OpReLU6, Scale: 0.125,
		ZeroPoint: -3, Begin: []int{0, 1}, Size: []int{1, -1},
		NewShape: []int{1, -1}, DepthMult: 2, KeepDims: true,
		ReduceAxes: []int{1, 2}, OutDType: graph.Int8, OutDTypeSet: true,
		Dilation: 2, Groups: 4, SqueezeBatch: true,
	}
	kv := map[string]string{}
	for _, p := range attrsToKV(a) {
		kv[p[0]] = p[1]
	}
	got, err := kvToAttrs(kv)
	if err != nil {
		t.Fatal(err)
	}
	// Compare by re-flattening.
	kv2 := map[string]string{}
	for _, p := range attrsToKV(got) {
		kv2[p[0]] = p[1]
	}
	if len(kv) != len(kv2) {
		t.Fatalf("attr kv mismatch: %v vs %v", kv, kv2)
	}
	for k, v := range kv {
		if kv2[k] != v {
			t.Errorf("attr %s: %q != %q", k, kv2[k], v)
		}
	}
}

func TestKVToAttrsRejectsBadValues(t *testing.T) {
	if _, err := kvToAttrs(map[string]string{"filters": "many"}); err == nil {
		t.Fatal("bad int should fail")
	}
	if _, err := kvToAttrs(map[string]string{"fused": "not_an_op"}); err == nil {
		t.Fatal("bad op should fail")
	}
	if _, err := kvToAttrs(map[string]string{"scale": "x"}); err == nil {
		t.Fatal("bad float should fail")
	}
	if _, err := kvToAttrs(map[string]string{"out_dtype": "float99"}); err == nil {
		t.Fatal("bad dtype should fail")
	}
	if _, err := kvToAttrs(map[string]string{"begin": "1,two"}); err == nil {
		t.Fatal("bad list should fail")
	}
}

// Property: round trip preserves checksums for randomly drawn zoo specs.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	tasks := zoo.AllTasks()
	fmts := All()
	for i := 0; i < 12; i++ {
		task := tasks[rng.Intn(len(tasks))]
		spec := zoo.Spec{
			Task:      task,
			Seed:      rng.Int63n(1 << 30),
			Hinted:    rng.Intn(2) == 0,
			Quantized: rng.Intn(4) == 0,
		}
		g, err := zoo.Build(spec)
		if err != nil {
			t.Fatalf("spec %+v: %v", spec, err)
		}
		f := fmts[rng.Intn(len(fmts))]
		files, err := f.Encode(g, "p")
		if err != nil {
			t.Fatalf("%s encode: %v", f.Name(), err)
		}
		got, err := f.Decode(files)
		if err != nil {
			t.Fatalf("%s decode: %v", f.Name(), err)
		}
		if graph.ModelChecksum(got) != graph.ModelChecksum(g) {
			t.Fatalf("%s: checksum not preserved for %+v", f.Name(), spec)
		}
	}
}

func TestTFLiteHeaderLayout(t *testing.T) {
	g := buildSample(t, zoo.TaskFaceDetection, 23)
	tfl, _ := ByName("tflite")
	files, err := tfl.Encode(g, "bf")
	if err != nil {
		t.Fatal(err)
	}
	data := files["bf.tflite"]
	if !bytes.Equal(data[4:8], []byte("TFL3")) {
		t.Fatalf("TFL3 must sit at offset 4, header = %x", data[:8])
	}
}

func TestExtensionOfCompound(t *testing.T) {
	cases := map[string]string{
		"model.tflite":      ".tflite",
		"w.pth.tar":         ".pth.tar",
		"net.cfg.ncnn":      ".cfg.ncnn",
		"net.weights.ncnn":  ".weights.ncnn",
		"UPPER.TFLITE":      ".tflite",
		"noext":             "",
		"dir/a.b/model.dlc": ".dlc",
	}
	for in, want := range cases {
		if got := extensionOf(in); got != want {
			t.Errorf("extensionOf(%q) = %q, want %q", in, got, want)
		}
	}
}

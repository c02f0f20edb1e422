package playstore

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"math"

	"github.com/gaugenn/gaugenn/internal/android/apk"
	"github.com/gaugenn/gaugenn/internal/android/dex"
	"github.com/gaugenn/gaugenn/internal/cloudml"
	"github.com/gaugenn/gaugenn/internal/nn/formats"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
)

// frameworkLibs maps each ML framework to the native library it ships and
// the interpreter call its dex code carries — the two signals the paper's
// library-inclusion detector (after Xu et al.) keys on.
var frameworkLibs = map[string]struct {
	SoName  string
	Symbol  string
	DexCall string
}{
	"tflite": {"libtensorflowlite_jni.so", "TfLiteInterpreterCreate",
		"Lorg/tensorflow/lite/Interpreter;-><init>(Ljava/nio/ByteBuffer;)V"},
	"caffe": {"libcaffe_jni.so", "caffe_net_forward",
		"Lcom/caffe/android/CaffeMobile;->predictImage(Ljava/lang/String;)"},
	"ncnn": {"libncnn.so", "ncnn_net_load_param",
		"Lcom/tencent/ncnn/NcnnNet;->load(Landroid/content/res/AssetManager;)"},
	"tf": {"libtensorflow_inference.so", "TF_NewSession",
		"Lorg/tensorflow/contrib/android/TensorFlowInferenceInterface;-><init>"},
	"snpe": {"libSNPE.so", "Snpe_SNPEBuilder_Build",
		"Lcom/qualcomm/qti/snpe/SNPE$NeuralNetworkBuilder;->build()"},
}

// Acceleration markers of Section 6.3.
const (
	nnapiDexCall    = "Lorg/tensorflow/lite/nnapi/NnApiDelegate;-><init>()V"
	xnnpackDexCall  = "Lorg/tensorflow/lite/Interpreter$Options;->setUseXNNPACK(Z)"
	lazyDownloadDex = "Lcom/example/ml/ModelDownloader;->fetchModel(Ljava/lang/String;)" // out-of-store delivery
)

// ModelFiles returns (building and caching on first use) the encoded file
// set of a unique model in its assigned framework format.
func (s *Snapshot) ModelFiles(specIdx int) (formats.FileSet, error) {
	if specIdx < 0 || specIdx >= len(s.Specs) {
		return nil, fmt.Errorf("playstore: spec index %d out of range", specIdx)
	}
	return s.encoded(specIdx, s.SpecFramework[specIdx])
}

// snpeFiles converts a model to the SNPE dlc container regardless of its
// native framework, for the dual tflite+dlc shippers of Section 6.3.
func (s *Snapshot) snpeFiles(specIdx int) (formats.FileSet, error) {
	return s.encoded(specIdx, "snpe")
}

// encoded builds (once per study, single-flight) a spec's file set in one
// format.
func (s *Snapshot) encoded(specIdx int, framework string) (formats.FileSet, error) {
	c := s.files
	k := fileKey{spec: specIdx, framework: framework}
	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		e = &fileCacheEntry{}
		c.entries[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		g, err := zoo.Build(s.Specs[specIdx])
		if err != nil {
			e.err = fmt.Errorf("playstore: building spec %d: %w", specIdx, err)
			return
		}
		f, ok := formats.ByName(framework)
		if !ok {
			e.err = fmt.Errorf("playstore: unknown framework %q", framework)
			return
		}
		e.fs, e.err = f.Encode(g, s.Specs[specIdx].FileStem())
	})
	return e.fs, e.err
}

// versionCode is the manifest version code the store ships a listing at.
func (a *App) versionCode() int { return 20 + a.Rank }

// BuildAPK assembles the app's base APK exactly as the store would serve
// it: manifest, classes.dex with the app's API call sites, native ML
// libraries and the model assets (encrypted ones XOR-obfuscated).
func (s *Snapshot) BuildAPK(a *App) ([]byte, error) {
	b := apk.NewBuilder(apk.Manifest{
		Package:     a.Package,
		VersionCode: a.versionCode(),
		MinSDK:      24,
		Permissions: []string{"android.permission.INTERNET"},
	})

	// classes.dex: the main activity invokes the frameworks, cloud APIs
	// and acceleration delegates the app uses.
	var calls []string
	for _, fw := range a.Frameworks {
		if lib, ok := frameworkLibs[fw]; ok {
			calls = append(calls, lib.DexCall)
		}
	}
	for _, apiName := range a.CloudAPIs {
		if sig, ok := cloudml.PrimaryCallSite(apiName); ok {
			calls = append(calls, sig)
		}
	}
	if a.UsesNNAPI {
		calls = append(calls, nnapiDexCall)
	}
	if a.UsesXNNPACK {
		calls = append(calls, xnnpackDexCall)
	}
	if a.LazyModelDownload {
		calls = append(calls, lazyDownloadDex)
	}
	d := &dex.Dex{Classes: []dex.Class{
		{
			Name: fmt.Sprintf("Lcom/%s/MainActivity;", sanitizeCat(a.Category)),
			Methods: []dex.Method{
				{Name: "onCreate", Calls: []string{"Landroid/app/Activity;->onCreate(Landroid/os/Bundle;)V"}},
				{Name: "initML", Calls: calls},
			},
		},
	}}
	b.SetDex(d.Encode())

	// Native libraries for each linked framework.
	for _, fw := range a.Frameworks {
		lib, ok := frameworkLibs[fw]
		if !ok {
			continue
		}
		so := dex.EncodeNativeLib(dex.NativeLib{
			SoName:  lib.SoName,
			Symbols: []string{lib.Symbol, "JNI_OnLoad"},
		})
		b.AddNativeLib("arm64-v8a", lib.SoName, so)
	}

	// Model assets. Distinct models occasionally share a file stem (two
	// apps copying the same public example name), so colliding names move
	// into numbered subdirectories instead of silently overwriting.
	usedAssets := map[string]bool{}
	for mi, m := range a.Models {
		var fs formats.FileSet
		var err error
		if m.Framework == "snpe" && s.SpecFramework[m.SpecIndex] != "snpe" {
			fs, err = s.snpeFiles(m.SpecIndex)
		} else {
			fs, err = s.ModelFiles(m.SpecIndex)
		}
		if err != nil {
			return nil, err
		}
		dir := m.AssetDir
		for name := range fs {
			if usedAssets[dir+"/"+name] {
				dir = fmt.Sprintf("%s/v%d", m.AssetDir, mi)
				break
			}
		}
		for name, data := range fs {
			payload := data
			if m.Encrypted {
				payload = xorObfuscate(data)
			}
			usedAssets[dir+"/"+name] = true
			b.AddAsset(dir+"/"+name, payload)
		}
	}

	// A resource stub so even empty apps look like apps.
	b.AddRaw("res/layout/activity_main.xml", []byte("<LinearLayout/>"))
	b.AddRaw("META-INF/MANIFEST.MF", []byte("Manifest-Version: 1.0\n"))
	return b.Build()
}

// packagingVersion is folded into every APKRecipe. Bump it whenever
// BuildAPK (or anything beneath it: the apk and dex writers, the zoo
// builders, the format encoders) would emit different bytes for the
// same inputs, so that recipes recorded against the old bytes miss.
// TestAPKRecipeGolden fails until it is bumped.
const packagingVersion = 1

// APKRecipe fingerprints everything BuildAPK reads for app a: a sha256
// over the package, version code and category, the linked frameworks
// and cloud APIs, the NNAPI/XNNPACK/lazy-download flags, and per model
// instance its full zoo.Spec, the spec's native framework, the shipping
// framework, Encrypted and AssetDir, all under packagingVersion. Equal
// recipes therefore mean byte-identical APKs, so a store can remember
// what a recipe's APK hashed to without building it again.
func (s *Snapshot) APKRecipe(a *App) [sha256.Size]byte {
	w := recipeWriter{h: sha256.New()}
	w.str("gaugenn/apk-recipe")
	w.u64(packagingVersion)
	w.str(a.Package)
	w.u64(uint64(a.versionCode()))
	w.str(string(a.Category))
	w.strs(a.Frameworks)
	w.strs(a.CloudAPIs)
	w.flag(a.UsesNNAPI)
	w.flag(a.UsesXNNPACK)
	w.flag(a.LazyModelDownload)
	w.u64(uint64(len(a.Models)))
	for _, m := range a.Models {
		sp := s.Specs[m.SpecIndex]
		w.u64(uint64(sp.Task))
		w.u64(uint64(sp.Arch))
		w.f64(sp.Opts.Width)
		w.u64(uint64(sp.Opts.Resolution))
		w.u64(uint64(sp.Opts.Classes))
		w.u64(uint64(sp.Opts.Vocab))
		w.u64(uint64(sp.Opts.TimeSteps))
		w.u64(uint64(sp.Seed))
		w.flag(sp.Hinted)
		w.flag(sp.Quantized)
		w.flag(sp.WeightQuantized)
		w.f64(sp.SparsityFrac)
		w.u64(uint64(sp.BaseSeed))
		w.u64(uint64(sp.FineTuneLayers))
		w.flag(sp.Ambiguous)
		w.str(s.SpecFramework[m.SpecIndex])
		w.str(m.Framework)
		w.flag(m.Encrypted)
		w.str(m.AssetDir)
	}
	var out [sha256.Size]byte
	w.h.Sum(out[:0])
	return out
}

// recipeWriter feeds a hash an unambiguous encoding: fixed-width
// integers, length-prefixed strings and counted lists.
type recipeWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (w *recipeWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *recipeWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *recipeWriter) flag(b bool) {
	if b {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *recipeWriter) str(v string) {
	w.u64(uint64(len(v)))
	io.WriteString(w.h, v)
}

func (w *recipeWriter) strs(vs []string) {
	w.u64(uint64(len(vs)))
	for _, v := range vs {
		w.str(v)
	}
}

// xorObfuscate is the stand-in for developer-side model encryption: the
// payload keeps its extension but fails every signature sniff.
func xorObfuscate(data []byte) []byte {
	out := make([]byte, len(data))
	for i, b := range data {
		out[i] = b ^ 0x5a
	}
	return out
}

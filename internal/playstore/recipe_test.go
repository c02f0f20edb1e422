package playstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/gaugenn/gaugenn/internal/nn/zoo"
)

var updateGolden = flag.Bool("update", false, "record the APK recipe golden file (testdata/apk_recipes.json)")

// shippingFormats is every format an instance can ship in.
var shippingFormats = []string{"tflite", "caffe", "ncnn", "tf", "snpe"}

// smallOpts keeps every architecture tiny so the fixtures build in
// milliseconds.
var smallOpts = zoo.ArchOpts{Width: 0.25, Resolution: 32, Classes: 3, Vocab: 64, TimeSteps: 4}

// taskForArch picks a task the architecture serves, so hinted names stay
// plausible.
var taskForArch = map[zoo.Arch]zoo.Task{
	zoo.ArchMobileNetV1:    zoo.TaskAugmentedReality,
	zoo.ArchMobileNetV2:    zoo.TaskImageClassification,
	zoo.ArchFSSD:           zoo.TaskObjectDetection,
	zoo.ArchBlazeFace:      zoo.TaskFaceDetection,
	zoo.ArchUNet:           zoo.TaskSemanticSegmentation,
	zoo.ArchCRNN:           zoo.TaskTextRecognition,
	zoo.ArchLandmarkNet:    zoo.TaskLandmarkDetection,
	zoo.ArchPoseNet:        zoo.TaskPoseEstimation,
	zoo.ArchEncoderDecoder: zoo.TaskStyleTransfer,
	zoo.ArchEmbedLSTM:      zoo.TaskAutoComplete,
	zoo.ArchTextCNN:        zoo.TaskSentimentPrediction,
	zoo.ArchSeq2Seq:        zoo.TaskTranslation,
	zoo.ArchAudioCNN:       zoo.TaskSoundRecognition,
	zoo.ArchSpeechRNN:      zoo.TaskSpeechRecognition,
	zoo.ArchKeywordCNN:     zoo.TaskKeywordDetection,
	zoo.ArchSensorMLP:      zoo.TaskCrashDetection,
	zoo.ArchSensorGRU:      zoo.TaskMovementTracking,
}

// recipeFixture hand-builds a snapshot that exercises every packaging
// branch: all 17 architecture families, all five shipping formats
// (including a tflite model shipped again as a dlc twin), encrypted,
// quantized, weight-quantized, sparse, fine-tuned and ambiguous specs,
// and two distinct models sharing a file name in one app.
func recipeFixture() *Snapshot {
	s := &Snapshot{Label: "fixture", Date: "2021-04-04", files: newModelFileCache()}
	addSpec := func(sp zoo.Spec, framework string) int {
		s.Specs = append(s.Specs, sp)
		s.SpecFramework = append(s.SpecFramework, framework)
		return len(s.Specs) - 1
	}
	var archSpecs []int
	for arch := zoo.ArchMobileNetV1; arch <= zoo.ArchSensorGRU; arch++ {
		sp := zoo.Spec{
			Task: taskForArch[arch], Arch: arch, Opts: smallOpts,
			Seed: 100 + int64(arch), Hinted: arch%2 == 0,
		}
		archSpecs = append(archSpecs, addSpec(sp, shippingFormats[int(arch)%len(shippingFormats)]))
	}
	face := zoo.Spec{Task: zoo.TaskFaceDetection, Arch: zoo.ArchBlazeFace, Opts: smallOpts, Seed: 900}
	quant := face
	quant.Quantized = true // same file stem as face: the collision pair
	weightQuant := zoo.Spec{Task: zoo.TaskImageClassification, Opts: smallOpts, Seed: 901, WeightQuantized: true, Hinted: true}
	sparse := zoo.Spec{Task: zoo.TaskKeywordDetection, Opts: smallOpts, Seed: 902, SparsityFrac: 0.05}
	fineTuned := zoo.Spec{Task: zoo.TaskAugmentedReality, Arch: zoo.ArchMobileNetV1, Opts: smallOpts,
		Seed: 903, BaseSeed: 100 + int64(zoo.ArchMobileNetV1), FineTuneLayers: 2, Hinted: true}
	ambiguous := zoo.Spec{Task: zoo.TaskObjectDetection, Opts: smallOpts, Seed: 904, Ambiguous: true}
	iFace := addSpec(face, "tflite")
	iQuant := addSpec(quant, "tflite")
	iWeightQuant := addSpec(weightQuant, "caffe")
	iSparse := addSpec(sparse, "ncnn")
	iFineTuned := addSpec(fineTuned, "tflite")
	iAmbiguous := addSpec(ambiguous, "tf")

	inst := func(spec int) ModelInstance {
		return ModelInstance{SpecIndex: spec, Framework: s.SpecFramework[spec], AssetDir: "models"}
	}
	app := func(n int, cat Category, models ...ModelInstance) *App {
		a := &App{Package: fmt.Sprintf("com.fixture.app%02d", n), Title: fmt.Sprintf("Fixture %d", n),
			Category: cat, Rank: n, Downloads: int64(1000 * n), Rating: 4, Models: models}
		for _, m := range models {
			if !containsStr(a.Frameworks, m.Framework) {
				a.Frameworks = append(a.Frameworks, m.Framework)
			}
		}
		s.Apps = append(s.Apps, a)
		return a
	}
	// The architecture zoo, a few families per app.
	for i := 0; i < len(archSpecs); i += 4 {
		var models []ModelInstance
		for _, spec := range archSpecs[i:min(i+4, len(archSpecs))] {
			models = append(models, inst(spec))
		}
		app(1+i/4, Categories()[i/4], models...)
	}
	collide := app(10, Photography, inst(iFace), inst(iQuant))
	collide.UsesNNAPI = true
	twin := inst(iFineTuned)
	twin.Framework = "snpe"
	dual := app(11, Tools, inst(iFineTuned), twin)
	dual.UsesSNPE, dual.UsesXNNPACK = true, true
	enc := inst(iWeightQuant)
	enc.Encrypted = true
	app(12, Finance, enc, inst(iSparse))
	cloud := app(13, Social, inst(iAmbiguous))
	cloud.CloudAPIs = []string{"Vision/Face", "Lex (chatbot)"}
	lazy := app(14, Business)
	lazy.Frameworks, lazy.LazyModelDownload = []string{"tflite"}, true
	return s
}

// buildAPK runs BuildAPK, turning a panic (a mutation that indexes past
// the spec table) into an error.
func buildAPK(s *Snapshot, a *App) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return s.BuildAPK(a)
}

func recipeOf(s *Snapshot, a *App) (r [sha256.Size]byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return s.APKRecipe(a), nil
}

func TestRecipeFixtureCoverage(t *testing.T) {
	s := recipeFixture()
	arches := map[zoo.Arch]bool{}
	formatsSeen := map[string]bool{}
	var twin, enc, quant, wquant, sparse, ft, amb bool
	for _, a := range s.Apps {
		for _, m := range a.Models {
			sp := s.Specs[m.SpecIndex]
			arches[sp.Arch] = true
			formatsSeen[m.Framework] = true
			twin = twin || (m.Framework == "snpe" && s.SpecFramework[m.SpecIndex] == "tflite")
			enc = enc || m.Encrypted
			quant = quant || sp.Quantized
			wquant = wquant || sp.WeightQuantized
			sparse = sparse || sp.SparsityFrac > 0
			ft = ft || sp.BaseSeed != 0
			amb = amb || sp.Ambiguous
		}
	}
	delete(arches, zoo.ArchUnknown)
	if len(arches) != 17 {
		t.Errorf("fixture covers %d architecture families, want 17", len(arches))
	}
	for _, f := range shippingFormats {
		if !formatsSeen[f] {
			t.Errorf("fixture ships nothing as %s", f)
		}
	}
	if !(twin && enc && quant && wquant && sparse && ft && amb) {
		t.Errorf("fixture misses a spec kind: twin=%v encrypted=%v quantized=%v weight-quantized=%v sparse=%v fine-tuned=%v ambiguous=%v",
			twin, enc, quant, wquant, sparse, ft, amb)
	}
	// The collision pair must really collide: the second model moves into
	// a numbered directory.
	collide, _ := s.AppByPackage("com.fixture.app10")
	data, err := s.BuildAPK(collide)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("assets/models/v1/")) {
		t.Error("collision app packaged no assets/models/v1/ directory")
	}
}

type goldenAPK struct {
	Package string `json:"package"`
	Recipe  string `json:"recipe"`
	SHA256  string `json:"sha256"`
}

type goldenFile struct {
	PackagingVersion int         `json:"packaging_version"`
	APKs             []goldenAPK `json:"apks"`
}

const goldenPath = "testdata/apk_recipes.json"

// TestAPKRecipeGolden pins the sha256 of every fixture APK to its recipe.
// A change to BuildAPK's bytes keeps the recipe (so stores would map it
// to the old APK's report) and fails here; bumping packagingVersion
// changes every recipe, after which -update records the new bytes. The
// update refuses to overwrite a recipe's hash under an unchanged
// packagingVersion.
func TestAPKRecipeGolden(t *testing.T) {
	s := recipeFixture()
	got := goldenFile{PackagingVersion: packagingVersion}
	for _, a := range s.Apps {
		data, err := s.BuildAPK(a)
		if err != nil {
			t.Fatalf("%s: %v", a.Package, err)
		}
		r := s.APKRecipe(a)
		sum := sha256.Sum256(data)
		got.APKs = append(got.APKs, goldenAPK{
			Package: a.Package, Recipe: hex.EncodeToString(r[:]), SHA256: hex.EncodeToString(sum[:]),
		})
	}
	var want goldenFile
	raw, err := os.ReadFile(goldenPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
	case errors.Is(err, os.ErrNotExist) && *updateGolden:
	default:
		t.Fatalf("%v (record it with go test -run TestAPKRecipeGolden -update)", err)
	}
	recorded := map[string]string{}
	for _, g := range want.APKs {
		recorded[g.Recipe] = g.SHA256
	}
	for _, g := range got.APKs {
		sum, ok := recorded[g.Recipe]
		switch {
		case ok && sum != g.SHA256:
			t.Errorf("%s: recipe %.12s now packages to %.12s, recorded %.12s: APK bytes changed, bump packagingVersion",
				g.Package, g.Recipe, g.SHA256, sum)
		case !ok && !*updateGolden:
			t.Errorf("%s: recipe %.12s is not recorded (packagingVersion %d, file has %d); record it with -update",
				g.Package, g.Recipe, packagingVersion, want.PackagingVersion)
		}
	}
	if *updateGolden && !t.Failed() {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// mutation edits one input of one fixture app in a cloned snapshot.
type mutation struct {
	field string
	apply func(s *Snapshot, a *App) bool // false: not applicable
}

// cloneSnapshot deep-copies everything BuildAPK reads, with a fresh
// file cache so a mutated spec is really rebuilt.
func cloneSnapshot(s *Snapshot) *Snapshot {
	c := &Snapshot{Label: s.Label, Date: s.Date, files: newModelFileCache()}
	c.Specs = append([]zoo.Spec(nil), s.Specs...)
	c.SpecFramework = append([]string(nil), s.SpecFramework...)
	for _, a := range s.Apps {
		cp := *a
		cp.Models = append([]ModelInstance(nil), a.Models...)
		cp.Frameworks = append([]string(nil), a.Frameworks...)
		cp.CloudAPIs = append([]string(nil), a.CloudAPIs...)
		c.Apps = append(c.Apps, &cp)
	}
	return c
}

// stringVariants are the values every string field is tried with: an
// edited copy plus every shipping format (only some strings matter to
// BuildAPK, and only for some values).
func stringVariants(v string) []string {
	return append([]string{v + "x", "models2", ""}, shippingFormats...)
}

// leafMutations enumerates edits of one scalar or string-list field,
// reached through at (which returns the addressable field in a clone).
func leafMutations(name string, typ reflect.Type, at func(s *Snapshot, a *App) (reflect.Value, bool)) []mutation {
	var out []mutation
	add := func(set func(f reflect.Value)) {
		out = append(out, mutation{field: name, apply: func(s *Snapshot, a *App) bool {
			f, ok := at(s, a)
			if ok {
				set(f)
			}
			return ok
		}})
	}
	switch typ.Kind() {
	case reflect.Bool:
		add(func(f reflect.Value) { f.SetBool(!f.Bool()) })
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		for _, d := range []int64{1, -1} {
			add(func(f reflect.Value) { f.SetInt(f.Int() + d) })
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		for _, d := range []int64{1, -1} {
			add(func(f reflect.Value) { f.SetUint(uint64(int64(f.Uint()) + d)) })
		}
	case reflect.Float32, reflect.Float64:
		add(func(f reflect.Value) { f.SetFloat(f.Float()*2 + 0.05) })
		add(func(f reflect.Value) { f.SetFloat(f.Float() / 2) })
	case reflect.String:
		for i := range stringVariants("") {
			add(func(f reflect.Value) { f.SetString(stringVariants(f.String())[i]) })
		}
	case reflect.Slice:
		if typ.Elem().Kind() != reflect.String {
			panic("unhandled slice field " + name)
		}
		extra := append(append([]string{}, shippingFormats...), "Vision/Barcode", "Speech")
		for _, e := range extra {
			add(func(f reflect.Value) { f.Set(reflect.Append(f, reflect.ValueOf(e).Convert(typ.Elem()))) })
		}
		add(func(f reflect.Value) {
			if f.Len() > 0 {
				f.Set(f.Slice(0, f.Len()-1))
			}
		})
	default:
		panic(fmt.Sprintf("unhandled field %s of kind %s", name, typ.Kind()))
	}
	return out
}

// structMutations walks a struct type's fields, recursing into nested
// structs; fields listed in skip are handled by the caller.
func structMutations(prefix string, typ reflect.Type, at func(s *Snapshot, a *App) (reflect.Value, bool), skip map[string]bool) []mutation {
	var out []mutation
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() || skip[f.Name] {
			continue
		}
		name := prefix + "." + f.Name
		fieldAt := func(s *Snapshot, a *App) (reflect.Value, bool) {
			v, ok := at(s, a)
			if !ok {
				return v, false
			}
			return v.Field(i), true
		}
		if f.Type.Kind() == reflect.Struct {
			out = append(out, structMutations(name, f.Type, fieldAt, nil)...)
			continue
		}
		out = append(out, leafMutations(name, f.Type, fieldAt)...)
	}
	return out
}

// allMutations covers every field of App, ModelInstance (for each model
// slot), zoo.Spec with its ArchOpts (through the spec a model slot
// references) and SpecFramework, plus adding and removing model slots.
func allMutations(maxModels int) []mutation {
	appAt := func(s *Snapshot, a *App) (reflect.Value, bool) { return reflect.ValueOf(a).Elem(), true }
	out := structMutations("App", reflect.TypeOf(App{}), appAt, map[string]bool{"Models": true})
	out = append(out,
		mutation{"App.Models", func(s *Snapshot, a *App) bool {
			if len(a.Models) == 0 {
				return false
			}
			a.Models = a.Models[:len(a.Models)-1]
			return true
		}},
		mutation{"App.Models", func(s *Snapshot, a *App) bool {
			if len(a.Models) == 0 {
				return false
			}
			a.Models = append(a.Models, a.Models[0])
			return true
		}},
	)
	for j := 0; j < maxModels; j++ {
		modelAt := func(s *Snapshot, a *App) (reflect.Value, bool) {
			if j >= len(a.Models) {
				return reflect.Value{}, false
			}
			return reflect.ValueOf(&a.Models[j]).Elem(), true
		}
		out = append(out, structMutations("ModelInstance", reflect.TypeOf(ModelInstance{}), modelAt, nil)...)
		specAt := func(s *Snapshot, a *App) (reflect.Value, bool) {
			if j >= len(a.Models) {
				return reflect.Value{}, false
			}
			return reflect.ValueOf(&s.Specs[a.Models[j].SpecIndex]).Elem(), true
		}
		out = append(out, structMutations("zoo.Spec", reflect.TypeOf(zoo.Spec{}), specAt, nil)...)
		for _, fw := range shippingFormats {
			out = append(out, mutation{"SpecFramework", func(s *Snapshot, a *App) bool {
				if j >= len(a.Models) {
					return false
				}
				s.SpecFramework[a.Models[j].SpecIndex] = fw
				return true
			}})
		}
	}
	return out
}

// fieldsBuildAPKIgnores are the listing fields that never reach the
// package bytes.
var fieldsBuildAPKIgnores = map[string]bool{
	"App.Title": true, "App.Downloads": true, "App.Rating": true, "App.UsesSNPE": true,
}

// TestAPKRecipeTracksBuildInputs is the recipe's completeness property:
// for every fixture app and every edit of any field BuildAPK could read,
// an edit that changes the APK's bytes must change its recipe. Every
// field outside fieldsBuildAPKIgnores must also change the bytes at
// least once, so a new field cannot slip past unexercised.
func TestAPKRecipeTracksBuildInputs(t *testing.T) {
	base := recipeFixture()
	maxModels := 0
	for _, a := range base.Apps {
		maxModels = max(maxModels, len(a.Models))
	}
	muts := allMutations(maxModels)
	changedBytes := map[string]bool{}
	fields := map[string]bool{}
	for i, a := range base.Apps {
		want, err := base.BuildAPK(a)
		if err != nil {
			t.Fatal(err)
		}
		wantRecipe := base.APKRecipe(a)
		for _, m := range muts {
			fields[m.field] = true
			s := cloneSnapshot(base)
			ma := s.Apps[i]
			if !m.apply(s, ma) {
				continue
			}
			got, err := buildAPK(s, ma)
			if err != nil || bytes.Equal(got, want) {
				continue // no APK, or the same APK: the recipe may do as it likes
			}
			changedBytes[m.field] = true
			r, err := recipeOf(s, ma)
			if err != nil {
				t.Errorf("%s: editing %s builds an APK but the recipe fails: %v", a.Package, m.field, err)
				continue
			}
			if r == wantRecipe {
				t.Errorf("%s: editing %s changes the APK bytes but not the recipe", a.Package, m.field)
			}
		}
	}
	for f := range fields {
		if !changedBytes[f] && !fieldsBuildAPKIgnores[f] {
			t.Errorf("no edit of %s changed any fixture APK: extend the fixture or list it in fieldsBuildAPKIgnores", f)
		}
	}
	for f := range fieldsBuildAPKIgnores {
		if changedBytes[f] {
			t.Errorf("%s is listed as ignored by BuildAPK but changed an APK", f)
		}
	}
	if !fields["zoo.Spec.Opts.Width"] || !fields["ModelInstance.AssetDir"] {
		t.Fatalf("mutation walk missed nested fields: %v", fields)
	}
}

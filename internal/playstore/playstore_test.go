package playstore

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"reflect"
	"testing"

	"github.com/gaugenn/gaugenn/internal/android/apk"
	"github.com/gaugenn/gaugenn/internal/nn/formats"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
)

const testScale = 0.04

func testStudy(t *testing.T) *Study {
	t.Helper()
	st, err := GenerateStudy(DefaultConfig(7, testScale))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestGenerateStudyDeterministic(t *testing.T) {
	a, err := GenerateStudy(DefaultConfig(3, testScale))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateStudy(DefaultConfig(3, testScale))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Snap21.Apps) != len(b.Snap21.Apps) {
		t.Fatal("app counts differ across identical seeds")
	}
	for i := range a.Snap21.Apps {
		if a.Snap21.Apps[i].Package != b.Snap21.Apps[i].Package ||
			len(a.Snap21.Apps[i].Models) != len(b.Snap21.Apps[i].Models) {
			t.Fatalf("app %d differs across identical seeds", i)
		}
	}
}

func TestGenerateStudyRejectsBadConfig(t *testing.T) {
	if _, err := GenerateStudy(Config{}); err == nil {
		t.Fatal("zero config must fail")
	}
}

// TestChartsFollowAppOrder pins the crawl's listing: at scales up to 1
// no category outgrows ChartDepth, so a crawl visits exactly the
// snapshot's apps in the snapshot's own order, and each app's crawl index
// is its position in Apps.
func TestChartsFollowAppOrder(t *testing.T) {
	for _, scale := range []float64{0.02, 0.1} {
		st, err := GenerateStudy(DefaultConfig(7, scale))
		if err != nil {
			t.Fatal(err)
		}
		for _, snap := range []*Snapshot{st.Snap20, st.Snap21} {
			if got := snap.Charts(ChartDepth); !reflect.DeepEqual(got, snap.Apps) {
				t.Fatalf("scale %g, %s: listing of %d apps is not the snapshot's %d in order", scale, snap.Label, len(got), len(snap.Apps))
			}
			capped := snap.Charts(2)
			if len(capped) != 2*len(Categories()) || capped[1].Rank != 2 || capped[2].Category != Categories()[1] {
				t.Fatalf("scale %g, %s: a 2-deep listing is not each category's top 2", scale, snap.Label)
			}
		}
	}
}

func TestSnapshotPopulationShape(t *testing.T) {
	st := testStudy(t)
	cfg := DefaultConfig(7, testScale)

	total21 := st.Snap21.ModelCount()
	// Encrypted instances ride along with framework-only apps; subtract
	// them for the Table 2 "validated models" comparison.
	valid21 := 0
	apps21WithValid := 0
	for _, a := range st.Snap21.Apps {
		n := 0
		for _, m := range a.Models {
			if !m.Encrypted {
				n++
			}
		}
		valid21 += n
		if n > 0 {
			apps21WithValid++
		}
	}
	wantModels := cfg.ExpectedModels21()
	if math.Abs(float64(valid21-wantModels)) > float64(wantModels)/5 {
		t.Errorf("2021 validated models = %d, want ~%d", valid21, wantModels)
	}
	_ = total21
	_ = apps21WithValid

	valid20 := 0
	for _, a := range st.Snap20.Apps {
		for _, m := range a.Models {
			if !m.Encrypted {
				valid20++
			}
		}
	}
	// 2020 should hold roughly half the models of 2021 (821/1666).
	if valid20 >= valid21 {
		t.Errorf("2020 models (%d) should be fewer than 2021 (%d)", valid20, valid21)
	}
	ratio := float64(valid21) / float64(maxInt(1, valid20))
	if ratio < 1.4 || ratio > 3.2 {
		t.Errorf("2021/2020 model ratio = %.2f, want ~2.0", ratio)
	}
}

func TestFrameworkMix(t *testing.T) {
	st := testStudy(t)
	counts := map[string]int{}
	total := 0
	for _, a := range st.Snap21.Apps {
		for _, m := range a.Models {
			if !m.Encrypted {
				counts[m.Framework]++
				total++
			}
		}
	}
	if total == 0 {
		t.Fatal("no models generated")
	}
	tfliteShare := float64(counts["tflite"]) / float64(total)
	if tfliteShare < 0.70 || tfliteShare > 0.95 {
		t.Errorf("tflite share = %.2f, want ~0.86", tfliteShare)
	}
	if counts["caffe"] == 0 {
		t.Error("caffe models missing")
	}
}

func TestCommunicationTopsModelChurn(t *testing.T) {
	st := testStudy(t)
	count := func(s *Snapshot) map[Category]int {
		out := map[Category]int{}
		for _, a := range s.Apps {
			for _, m := range a.Models {
				if !m.Encrypted {
					out[a.Category]++
				}
			}
		}
		return out
	}
	c21 := count(st.Snap21)
	c20 := count(st.Snap20)
	// 2021 top category must be COMMUNICATION, 2020 top PHOTOGRAPHY.
	top := func(m map[Category]int) Category {
		var best Category
		bestN := -1
		for _, c := range Categories() { // deterministic tie-break
			if m[c] > bestN {
				best, bestN = c, m[c]
			}
		}
		return best
	}
	if got := top(c21); got != Communication {
		t.Errorf("2021 top ML category = %s, want COMMUNICATION (counts %v)", got, c21)
	}
	if got := top(c20); got != Photography {
		t.Errorf("2020 top ML category = %s, want PHOTOGRAPHY (counts %v)", got, c20)
	}
}

func TestChurnTableConsistency(t *testing.T) {
	total, added, removed := 0, 0, 0
	for _, c := range Categories() {
		ch, ok := categoryChurn[c]
		if !ok {
			t.Fatalf("category %s missing from churn table", c)
		}
		if ch.Added > ch.Total21 {
			t.Errorf("%s: added %d exceeds total %d", c, ch.Added, ch.Total21)
		}
		total += ch.Total21
		added += ch.Added
		removed += ch.Removed
	}
	if total != 1666 {
		t.Errorf("sum(Total21) = %d, want 1666 (Table 2)", total)
	}
	if got := total - added + removed; got != 821 {
		t.Errorf("reconstructed 2020 total = %d, want 821 (Table 2)", got)
	}
}

func TestAccelerationTraces(t *testing.T) {
	st := testStudy(t)
	nnapi, xnnpack, snpe := 0, 0, 0
	for _, a := range st.Snap21.Apps {
		if a.UsesNNAPI {
			nnapi++
		}
		if a.UsesXNNPACK {
			xnnpack++
		}
		if a.UsesSNPE {
			snpe++
		}
	}
	if nnapi == 0 {
		t.Error("no NNAPI apps")
	}
	if xnnpack != 1 {
		t.Errorf("XNNPACK apps = %d, want exactly 1 (Section 6.3)", xnnpack)
	}
	if snpe == 0 {
		t.Error("no SNPE apps")
	}
	// SNPE apps ship a dlc twin of a tflite model.
	for _, a := range st.Snap21.Apps {
		if !a.UsesSNPE {
			continue
		}
		hasDLC := false
		for _, m := range a.Models {
			if m.Framework == "snpe" {
				hasDLC = true
			}
		}
		if !hasDLC {
			t.Error("SNPE app missing dlc variant")
		}
	}
}

func TestBuildAPKContainsModels(t *testing.T) {
	st := testStudy(t)
	var mlApp *App
	for _, a := range st.Snap21.Apps {
		if len(a.Models) > 0 && !a.Models[0].Encrypted {
			mlApp = a
			break
		}
	}
	if mlApp == nil {
		t.Fatal("no ML app generated")
	}
	data, err := st.Snap21.BuildAPK(mlApp)
	if err != nil {
		t.Fatal(err)
	}
	r, err := apk.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.Manifest().Package != mlApp.Package {
		t.Fatalf("manifest package %q", r.Manifest().Package)
	}
	assets := r.Assets()
	if len(assets) == 0 {
		t.Fatal("ML app has no assets")
	}
	// At least one asset must validate as a model of the right framework.
	found := false
	for _, name := range assets {
		data, err := r.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if f, ok := formats.Identify(name, data); ok && f.Name() == mlApp.Models[0].Framework {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no asset validates as %s model (assets: %v)", mlApp.Models[0].Framework, assets)
	}
	if len(r.NativeLibs()) == 0 {
		t.Fatal("ML app should ship framework native libs")
	}
	if _, err := r.Dex(); err != nil {
		t.Fatal("ML app should ship classes.dex")
	}
}

func TestEncryptedModelsFailValidation(t *testing.T) {
	st := testStudy(t)
	var encApp *App
	for _, a := range st.Snap21.Apps {
		for _, m := range a.Models {
			if m.Encrypted {
				encApp = a
			}
		}
	}
	if encApp == nil {
		t.Skip("no encrypted-model app at this scale")
	}
	data, err := st.Snap21.BuildAPK(encApp)
	if err != nil {
		t.Fatal(err)
	}
	r, err := apk.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range r.Assets() {
		payload, err := r.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := formats.Identify(name, payload); ok {
			t.Fatalf("encrypted asset %s should not validate", name)
		}
	}
}

func TestModelFilesCache(t *testing.T) {
	st := testStudy(t)
	// A spec both snapshots ship.
	in20 := map[int]bool{}
	for _, a := range st.Snap20.Apps {
		for _, m := range a.Models {
			in20[m.SpecIndex] = true
		}
	}
	spec := -1
	for _, a := range st.Snap21.Apps {
		for _, m := range a.Models {
			if spec < 0 && in20[m.SpecIndex] {
				spec = m.SpecIndex
			}
		}
	}
	if spec < 0 {
		t.Fatal("no model instance shared by both snapshots")
	}
	fs1, err := st.Snap21.ModelFiles(spec)
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := st.Snap21.ModelFiles(spec)
	if err != nil {
		t.Fatal(err)
	}
	fs20, err := st.Snap20.ModelFiles(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The cache must hand out exactly what an uncached encode produces.
	g, err := zoo.Build(st.Snap21.Specs[spec])
	if err != nil {
		t.Fatal(err)
	}
	f, _ := formats.ByName(st.Snap21.SpecFramework[spec])
	fresh, err := f.Encode(g, st.Snap21.Specs[spec].FileStem())
	if err != nil {
		t.Fatal(err)
	}
	if len(fs1) == 0 || len(fs1) != len(fresh) || len(fs2) != len(fresh) {
		t.Fatalf("file sets differ in size: cached %d/%d, fresh %d", len(fs1), len(fs2), len(fresh))
	}
	for name, data := range fresh {
		if !bytes.Equal(fs1[name], data) || !bytes.Equal(fs2[name], data) {
			t.Fatalf("cached %s differs from a fresh encode", name)
		}
	}
	// Both snapshots share Specs, so they share one cached file set.
	if reflect.ValueOf(fs1).Pointer() != reflect.ValueOf(fs20).Pointer() {
		t.Fatal("the 2020 snapshot rebuilt a spec the 2021 snapshot had cached")
	}
	// The dlc twin is cached alongside the native encoding.
	dlc1, err := st.Snap21.snpeFiles(spec)
	if err != nil {
		t.Fatal(err)
	}
	dlc2, err := st.Snap20.snpeFiles(spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(dlc1).Pointer() != reflect.ValueOf(dlc2).Pointer() {
		t.Fatal("dlc conversion is not cached")
	}
	if _, err := st.Snap21.ModelFiles(-1); err == nil {
		t.Fatal("out-of-range spec should fail")
	}
}

func TestServerEndpoints(t *testing.T) {
	st := testStudy(t)
	srv := NewServer(st.Snap21)
	base, shutdown, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	get := func(path string, withHeaders bool) (*http.Response, []byte) {
		req, err := http.NewRequest("GET", base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if withHeaders {
			req.Header.Set("User-Agent", "Android-Finsky/8.0 (device=beyond1)")
			req.Header.Set("X-DFE-Locale", "en_GB")
			req.Header.Set("X-DFE-Device", "SM-G977B")
		} else {
			// Explicitly clear the default Go user agent.
			req.Header.Set("User-Agent", "")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}

	// Headers are mandatory.
	if resp, _ := get("/fdfe/categories", false); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("headerless request: status %d, want 400", resp.StatusCode)
	}

	resp, body := get("/fdfe/categories", true)
	if resp.StatusCode != 200 {
		t.Fatalf("categories: %d", resp.StatusCode)
	}
	var cats []string
	if err := json.Unmarshal(body, &cats); err != nil || len(cats) != len(Categories()) {
		t.Fatalf("categories payload: %v %v", err, cats)
	}

	resp, body = get("/fdfe/topCharts?cat=COMMUNICATION&n=10", true)
	if resp.StatusCode != 200 {
		t.Fatalf("topCharts: %d", resp.StatusCode)
	}
	var chart []ChartEntry
	if err := json.Unmarshal(body, &chart); err != nil || len(chart) == 0 {
		t.Fatalf("chart payload: %v", err)
	}
	if chart[0].Rank != 1 {
		t.Fatalf("chart not rank-ordered: %+v", chart[0])
	}

	pkg := chart[0].Package
	resp, body = get("/fdfe/purchase?doc="+pkg, true)
	if resp.StatusCode != 200 {
		t.Fatalf("purchase: %d", resp.StatusCode)
	}
	if _, err := apk.Open(body); err != nil {
		t.Fatalf("served APK invalid: %v", err)
	}

	resp, body = get("/fdfe/delivery?doc="+pkg, true)
	if resp.StatusCode != 200 {
		t.Fatalf("delivery: %d", resp.StatusCode)
	}
	var man DeliveryManifest
	if err := json.Unmarshal(body, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.OBBs) != 0 || len(man.AssetPacks) != 0 {
		t.Fatal("no models should ship outside the base apk (Section 4.2)")
	}

	if resp, _ := get("/fdfe/details?doc=does.not.exist", true); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown package: %d", resp.StatusCode)
	}
	if resp, _ := get("/fdfe/topCharts", true); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing cat: %d", resp.StatusCode)
	}

	// Device-agnostic delivery (Section 4.2): identical bytes for an old
	// device profile.
	req, _ := http.NewRequest("GET", base+"/fdfe/purchase?doc="+pkg, nil)
	req.Header.Set("User-Agent", "Android-Finsky/7.0 (device=hero2lte)")
	req.Header.Set("X-DFE-Locale", "en_GB")
	req.Header.Set("X-DFE-Device", "SM-G935F") // S7 edge, three generations older
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	oldBytes, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if string(oldBytes) != string(body[:0]) && len(oldBytes) == 0 {
		t.Fatal("old-device purchase failed")
	}
	resp3, body3 := get("/fdfe/purchase?doc="+pkg, true)
	if resp3.StatusCode != 200 || string(oldBytes) != string(body3) {
		t.Fatal("delivery must be device-agnostic (Section 4.2)")
	}

	if srv.RequestCount("/fdfe/purchase") < 2 {
		t.Fatal("request counting broken")
	}
	if len(srv.DeviceLog()) < 2 {
		t.Fatal("device log broken")
	}
}

func TestCloudAPIAssignment(t *testing.T) {
	st := testStudy(t)
	google, aws := 0, 0
	for _, a := range st.Snap21.Apps {
		if len(a.CloudAPIs) == 0 {
			continue
		}
		isAWS := false
		for _, api := range a.CloudAPIs {
			for _, k := range cloudAPIs {
				if k.Name == api && k.Provider == "aws" {
					isAWS = true
				}
			}
		}
		if isAWS {
			aws++
		} else {
			google++
		}
	}
	if google == 0 || aws == 0 {
		t.Fatalf("cloud apps: google=%d aws=%d", google, aws)
	}
	if google <= aws {
		t.Errorf("google cloud apps (%d) should dominate aws (%d), per Figure 15", google, aws)
	}
}

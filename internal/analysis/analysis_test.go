package analysis

import (
	"context"
	"math"
	"testing"

	"github.com/gaugenn/gaugenn/internal/extract"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
	"github.com/gaugenn/gaugenn/internal/playstore"
)

// buildCorpus runs the full offline pipeline (packaging -> extraction ->
// corpus) over a generated snapshot, in process.
func buildCorpus(t *testing.T, snap *playstore.Snapshot, label string) *Corpus {
	t.Helper()
	c := NewShardedCorpus(label, false, len(snap.Apps), nil)
	for i, a := range snap.Apps {
		if !a.HasML() {
			// Non-ML apps contribute to app totals without packaging cost.
			c.AddApp(i, AppInfo{Package: a.Package, Category: string(a.Category)})
			continue
		}
		apkBytes, err := snap.BuildAPK(a)
		if err != nil {
			t.Fatalf("%s: %v", a.Package, err)
		}
		rep, err := extract.ExtractAPK(apkBytes)
		if err != nil {
			t.Fatalf("%s: %v", a.Package, err)
		}
		if err := c.AddReport(context.Background(), i, string(a.Category), rep); err != nil {
			t.Fatal(err)
		}
	}
	return c.Merge()
}

var cachedStudy *playstore.Study

func study(t *testing.T) *playstore.Study {
	t.Helper()
	if cachedStudy == nil {
		st, err := playstore.GenerateStudy(playstore.DefaultConfig(31, 0.04))
		if err != nil {
			t.Fatal(err)
		}
		cachedStudy = st
	}
	return cachedStudy
}

var (
	cached21, cached20 *Corpus
)

func corpora(t *testing.T) (*Corpus, *Corpus) {
	t.Helper()
	st := study(t)
	if cached21 == nil {
		cached21 = buildCorpus(t, st.Snap21, "2021")
		cached20 = buildCorpus(t, st.Snap20, "2020")
	}
	return cached20, cached21
}

func TestDatasetStats(t *testing.T) {
	c20, c21 := corpora(t)
	d21 := c21.Dataset()
	d20 := c20.Dataset()
	if d21.TotalApps == 0 || d21.TotalModels == 0 {
		t.Fatalf("empty 2021 dataset: %+v", d21)
	}
	// Table 2 shape: 2021 roughly doubles 2020's models.
	growth := float64(d21.TotalModels) / math.Max(1, float64(d20.TotalModels))
	if growth < 1.4 || growth > 3.5 {
		t.Errorf("model growth = %.2f, want ~2.0 (Table 2)", growth)
	}
	// Unique share near 19.1%.
	uniqShare := float64(d21.UniqueModels) / float64(d21.TotalModels)
	if uniqShare < 0.10 || uniqShare > 0.45 {
		t.Errorf("unique share = %.2f, want ~0.19", uniqShare)
	}
	// Apps with frameworks >= apps with models (encrypted/lazy apps).
	if d21.AppsWithFw < d21.AppsWithModels {
		t.Errorf("frameworks apps (%d) < model apps (%d)", d21.AppsWithFw, d21.AppsWithModels)
	}
	if d21.AppsWithFw == d21.AppsWithModels {
		t.Error("expected framework-only apps (obfuscated/lazy models)")
	}
}

func TestModelSharing(t *testing.T) {
	_, c21 := corpora(t)
	shared := c21.InstancesSharedAcrossApps()
	if shared < 0.5 {
		t.Errorf("shared instance fraction = %.2f, want high (paper: ~0.81)", shared)
	}
}

func TestTaskBreakdown(t *testing.T) {
	_, c21 := corpora(t)
	rows, identified := c21.TaskBreakdown(true)
	if len(rows) == 0 {
		t.Fatal("no task rows")
	}
	// Object detection must top Table 3.
	if rows[0].Task != zoo.TaskObjectDetection {
		t.Errorf("top task = %s, want object detection (rows %+v)", rows[0].Task, rows[:3])
	}
	idFrac := float64(identified) / float64(c21.TotalModels())
	if idFrac < 0.80 {
		t.Errorf("identified fraction = %.2f, want ~0.92", idFrac)
	}
	// Vision must dominate (>89% of identified).
	vision := 0
	total := 0
	for _, r := range rows {
		total += r.Count
		if r.Task.Modality() == graph.ModalityImage {
			vision += r.Count
		}
	}
	if frac := float64(vision) / float64(total); frac < 0.80 {
		t.Errorf("vision fraction = %.2f, want > 0.89", frac)
	}
}

func TestFrameworkAggregations(t *testing.T) {
	_, c21 := corpora(t)
	totals := c21.FrameworkTotals()
	if totals["tflite"] == 0 {
		t.Fatal("no tflite models")
	}
	sum := 0
	for _, n := range totals {
		sum += n
	}
	if share := float64(totals["tflite"]) / float64(sum); share < 0.7 {
		t.Errorf("tflite share = %.2f, want ~0.86", share)
	}
	byCat := c21.FrameworkByCategory()
	catSum := 0
	for _, m := range byCat {
		for _, n := range m {
			catSum += n
		}
	}
	if catSum != c21.TotalModels() {
		t.Fatalf("category breakdown sums to %d, want %d", catSum, c21.TotalModels())
	}
}

func TestLayerComposition(t *testing.T) {
	_, c21 := corpora(t)
	comp := c21.LayerComposition()
	img, ok := comp[graph.ModalityImage]
	if !ok {
		t.Fatal("no image modality composition")
	}
	// Convolutions must be the dominant image class (Figure 6: ~34%).
	if img[graph.ClassConv] < img[graph.ClassDense] {
		t.Errorf("image conv share %.2f should exceed dense %.2f", img[graph.ClassConv], img[graph.ClassDense])
	}
	var total float64
	for _, f := range img {
		total += f
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("image class fractions sum to %v, want 1", total)
	}
	// Text models leans on dense/embedding layers more than image models.
	if txt, ok := comp[graph.ModalityText]; ok {
		if txt[graph.ClassDense] <= img[graph.ClassDense] {
			t.Errorf("text dense share %.2f should exceed image dense share %.2f",
				txt[graph.ClassDense], img[graph.ClassDense])
		}
	}
}

func TestCostByTask(t *testing.T) {
	_, c21 := corpora(t)
	rows := c21.CostByTask()
	if len(rows) < 5 {
		t.Fatalf("cost rows = %d", len(rows))
	}
	med := map[zoo.Task]float64{}
	for _, r := range rows {
		med[r.Task] = r.FLOPsMedian
		if r.FLOPsMin > r.FLOPsMedian || r.FLOPsMedian > r.FLOPsMax {
			t.Fatalf("ordering broken in %+v", r)
		}
	}
	// Figure 7 shape: classification >> face detection in FLOPs.
	if med[zoo.TaskImageClassification] > 0 && med[zoo.TaskFaceDetection] > 0 &&
		med[zoo.TaskImageClassification] <= med[zoo.TaskFaceDetection] {
		t.Errorf("classification median FLOPs (%.0f) should exceed face detection (%.0f)",
			med[zoo.TaskImageClassification], med[zoo.TaskFaceDetection])
	}
}

func TestFineTuningStats(t *testing.T) {
	_, c21 := corpora(t)
	st := c21.FineTuning()
	if st.Uniques == 0 {
		t.Fatal("no uniques")
	}
	if st.SharingFrac <= 0 {
		t.Error("expected some fine-tuned relatives (paper: 9.02%)")
	}
	if st.SharingFrac > 0.5 {
		t.Errorf("sharing fraction = %.2f, implausibly high", st.SharingFrac)
	}
	if st.SmallDeltaFrac > st.SharingFrac {
		t.Error("small-delta models are a subset of sharing models")
	}
	if st.OnDeviceTraining != 0 {
		t.Error("no on-device training traces expected")
	}
}

func TestOptimisationStats(t *testing.T) {
	_, c21 := corpora(t)
	st := c21.Optimisations()
	if st.ClusteredModels != 0 || st.PrunedModels != 0 {
		t.Errorf("paper found no clustering/pruning, got %d/%d", st.ClusteredModels, st.PrunedModels)
	}
	if st.DequantizeFrac <= 0 || st.DequantizeFrac > 0.35 {
		t.Errorf("dequantize fraction = %.3f, want ~0.103", st.DequantizeFrac)
	}
	if st.Int8WeightFrac < st.DequantizeFrac {
		t.Errorf("int8 weights (%.3f) should be at least dequantize share (%.3f)",
			st.Int8WeightFrac, st.DequantizeFrac)
	}
	if st.MeanWeightSparsity <= 0.005 || st.MeanWeightSparsity > 0.10 {
		t.Errorf("mean sparsity = %.4f, want ~0.0315", st.MeanWeightSparsity)
	}
}

func TestTemporalDiff(t *testing.T) {
	c20, c21 := corpora(t)
	rows := TemporalDiff(c20, c21)
	if len(rows) == 0 {
		t.Fatal("no churn rows")
	}
	// COMMUNICATION must be the top net gainer (Figure 5).
	if rows[0].Category != "COMMUNICATION" {
		t.Errorf("top net gainer = %s, want COMMUNICATION (rows %+v)", rows[0].Category, rows[:3])
	}
	// LIFESTYLE should be among the biggest net losers.
	last := rows[len(rows)-1]
	if net := last.Added - last.Removed; net > 0 {
		t.Errorf("bottom category %s still net-positive (%d)", last.Category, net)
	}
}

func TestCloudAPIUsage(t *testing.T) {
	_, c21 := corpora(t)
	perAPI, google, aws, total := c21.CloudAPIUsage()
	if total == 0 {
		t.Fatal("no cloud apps detected")
	}
	if google <= aws {
		t.Errorf("google apps (%d) should dominate aws (%d)", google, aws)
	}
	if len(perAPI) == 0 {
		t.Fatal("no per-API counts")
	}
}

func TestAccelerationTraces(t *testing.T) {
	_, c21 := corpora(t)
	nnapi, xnnpack, snpe := c21.AccelerationTraces()
	if nnapi == 0 {
		t.Error("no NNAPI traces")
	}
	if xnnpack != 1 {
		t.Errorf("XNNPACK traces = %d, want 1", xnnpack)
	}
	if snpe == 0 {
		t.Error("no SNPE traces")
	}
}

func TestClassifyTaskDirect(t *testing.T) {
	cases := []struct {
		spec zoo.Spec
		want zoo.Task
	}{
		{zoo.Spec{Task: zoo.TaskFaceDetection, Seed: 3, Hinted: true}, zoo.TaskFaceDetection},
		{zoo.Spec{Task: zoo.TaskAutoComplete, Seed: 4, Hinted: true}, zoo.TaskAutoComplete},
		{zoo.Spec{Task: zoo.TaskSemanticSegmentation, Seed: 5, Hinted: true}, zoo.TaskSemanticSegmentation},
		{zoo.Spec{Task: zoo.TaskSoundRecognition, Seed: 6, Hinted: true}, zoo.TaskSoundRecognition},
	}
	for _, c := range cases {
		g, err := zoo.Build(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := ClassifyTask(g)
		if !ok || got != c.want {
			t.Errorf("classify(%s) = %s ok=%v, want %s", c.spec.Task, got, ok, c.want)
		}
	}
}

func TestClassifyUnhintedStillWorksOften(t *testing.T) {
	// Without name hints, structure votes should still identify common
	// tasks (io + ops voters agreeing).
	hits := 0
	total := 0
	for _, task := range []zoo.Task{zoo.TaskSemanticSegmentation, zoo.TaskAutoComplete, zoo.TaskTextRecognition, zoo.TaskObjectDetection} {
		g, err := zoo.Build(zoo.Spec{Task: task, Seed: int64(task) * 13})
		if err != nil {
			t.Fatal(err)
		}
		got, ok := ClassifyTask(g)
		total++
		if ok && got == task {
			hits++
		}
	}
	if hits < total/2 {
		t.Errorf("unhinted classification hit %d/%d, want at least half", hits, total)
	}
}

func TestClassifyAmbiguousAbstains(t *testing.T) {
	g, err := zoo.Build(zoo.Spec{Task: zoo.TaskObjectDetection, Seed: 77, Ambiguous: true})
	if err != nil {
		t.Fatal(err)
	}
	if task, ok := ClassifyTask(g); ok {
		// An ambiguous classifier-shaped net may fall to image
		// classification via io+ops agreement; anything else is a bug.
		if task != zoo.TaskImageClassification {
			t.Errorf("ambiguous model classified as %s", task)
		}
	}
}

func TestFingerprintArch(t *testing.T) {
	cases := []struct {
		spec zoo.Spec
		want zoo.Arch
	}{
		{zoo.Spec{Task: zoo.TaskObjectDetection, Seed: 81}, zoo.ArchFSSD},
		{zoo.Spec{Task: zoo.TaskFaceDetection, Seed: 82}, zoo.ArchBlazeFace},
		{zoo.Spec{Task: zoo.TaskSemanticSegmentation, Seed: 83}, zoo.ArchUNet},
		{zoo.Spec{Task: zoo.TaskAutoComplete, Seed: 84}, zoo.ArchEmbedLSTM},
		{zoo.Spec{Task: zoo.TaskTextRecognition, Seed: 85}, zoo.ArchCRNN},
		{zoo.Spec{Task: zoo.TaskImageClassification, Seed: 86}, zoo.ArchMobileNetV2},
		{zoo.Spec{Task: zoo.TaskTranslation, Seed: 87}, zoo.ArchSeq2Seq},
		{zoo.Spec{Task: zoo.TaskCrashDetection, Seed: 88}, zoo.ArchSensorMLP},
	}
	for _, c := range cases {
		g, err := zoo.Build(c.spec) // unhinted names: structure must carry it
		if err != nil {
			t.Fatal(err)
		}
		if got := FingerprintArch(g); got != c.want {
			t.Errorf("%s: fingerprint = %s, want %s", c.spec.Task, got, c.want)
		}
	}
}

func TestFingerprintArchNameHints(t *testing.T) {
	g, err := zoo.Build(zoo.Spec{Task: zoo.TaskFaceDetection, Seed: 89, Hinted: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := FingerprintArch(g); got != zoo.ArchBlazeFace {
		t.Fatalf("hinted blazeface fingerprint = %s", got)
	}
}

func TestArchitectureBreakdown(t *testing.T) {
	_, c21 := corpora(t)
	rows := c21.ArchitectureBreakdown()
	if len(rows) == 0 {
		t.Fatal("no architecture rows")
	}
	// FSSD must be the most shipped architecture (Section 4.5: object
	// detection dominates and FSSD is its most popular family).
	if rows[0].Arch != zoo.ArchFSSD {
		t.Errorf("top architecture = %s, want fssd (rows %+v)", rows[0].Arch, rows[:3])
	}
	totalInstances := 0
	for _, r := range rows {
		totalInstances += r.Instances
		if r.Uniques > r.Instances {
			t.Errorf("%s: uniques %d exceed instances %d", r.Arch, r.Uniques, r.Instances)
		}
	}
	if totalInstances != c21.TotalModels() {
		t.Fatalf("instances sum %d != corpus total %d", totalInstances, c21.TotalModels())
	}
}

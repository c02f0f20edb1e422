// Benchmark harness regenerating every table and figure of the paper's
// evaluation (Sections 4-6). Each Benchmark* target rebuilds one artifact
// and prints the rows/series the paper reports, alongside the paper's own
// numbers where the comparison is meaningful. Absolute values come from
// the simulated substrates; the asserted property is the *shape* — who
// wins, by roughly what factor, where crossovers fall.
//
// The synthetic store scale defaults to 5% of the paper's 16.6k-app crawl;
// set GAUGENN_SCALE=1.0 for a full-scale regeneration:
//
//	GAUGENN_SCALE=1.0 go test -bench=. -benchmem -timeout 0
package gaugenn_test

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"

	"github.com/gaugenn/gaugenn/internal/analysis"
	"github.com/gaugenn/gaugenn/internal/core"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
	"github.com/gaugenn/gaugenn/internal/report"
	"github.com/gaugenn/gaugenn/internal/stats"
)

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

const studySeed = 20210404 // the 2021 snapshot date

func studyScale() float64 {
	if v := os.Getenv("GAUGENN_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.05
}

var (
	studyOnce sync.Once
	studyRes  *core.StudyResult
	studyErr  error
)

// study builds the two-snapshot corpus once per test binary.
func study(b *testing.B) *core.StudyResult {
	b.Helper()
	studyOnce.Do(func() {
		cfg := core.DefaultConfig(studySeed, studyScale())
		cfg.UseHTTP = false // packaging+extraction dominate; HTTP is covered by tests
		studyRes, studyErr = core.Run(context.Background(), cfg)
	})
	if studyErr != nil {
		b.Fatal(studyErr)
	}
	return studyRes
}

var (
	benchModelsOnce sync.Once
	benchModels     []core.BenchModel
	benchModelsErr  error
)

// benchedModels is the model subset deployed to devices, like the paper's
// "hundreds of these DNN models" benchmarking population.
func benchedModels(b *testing.B) []core.BenchModel {
	b.Helper()
	res := study(b)
	benchModelsOnce.Do(func() {
		n := int(200 * studyScale())
		if n < 12 {
			n = 12
		}
		benchModels, benchModelsErr = core.SelectBenchModels(res.Corpus21, n)
	})
	if benchModelsErr != nil {
		b.Fatal(benchModelsErr)
	}
	return benchModels
}

var printOnce sync.Map

// emit prints a bench's report exactly once per process.
func emit(name, content string) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s\n", name, content)
	}
}

// ---------------------------------------------------------------------------
// Table 2 — dataset snapshots
// ---------------------------------------------------------------------------

func BenchmarkTable2_DatasetSnapshots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := study(b)
		d20, d21 := res.Corpus20.Dataset(), res.Corpus21.Dataset()
		s := studyScale()
		rows := [][]string{
			{"Total Apps", fmt.Sprint(d20.TotalApps), fmt.Sprint(d21.TotalApps),
				fmt.Sprintf("%.0f", 16964*s), fmt.Sprintf("%.0f", 16653*s)},
			{"Apps w/ frameworks", fmt.Sprint(d20.AppsWithFw), fmt.Sprint(d21.AppsWithFw),
				fmt.Sprintf("%.0f", 236*s), fmt.Sprintf("%.0f", 377*s)},
			{"Apps w/ models", fmt.Sprint(d20.AppsWithModels), fmt.Sprint(d21.AppsWithModels),
				fmt.Sprintf("%.0f", 165*s), fmt.Sprintf("%.0f", 342*s)},
			{"Total models", fmt.Sprint(d20.TotalModels), fmt.Sprint(d21.TotalModels),
				fmt.Sprintf("%.0f", 821*s), fmt.Sprintf("%.0f", 1666*s)},
			{"Unique models", fmt.Sprint(d20.UniqueModels), fmt.Sprint(d21.UniqueModels),
				fmt.Sprintf("%.0f", 129*s), fmt.Sprintf("%.0f", 318*s)},
		}
		table := report.Table(
			fmt.Sprintf("Table 2 at scale %.2f (measured '20, measured '21, paper-scaled '20, paper-scaled '21)", s),
			[]string{"", "'20", "'21", "paper'20", "paper'21"}, rows)
		growth := float64(d21.TotalModels) / float64(d20.TotalModels)
		table += fmt.Sprintf("model growth: measured %.2fx, paper 2.03x\n", growth)
		table += fmt.Sprintf("unique share '21: measured %.1f%%, paper 19.1%%\n",
			100*float64(d21.UniqueModels)/float64(d21.TotalModels))
		table += fmt.Sprintf("instances shared across apps: measured %.1f%%, paper ~80.9%%\n",
			100*res.Corpus21.InstancesSharedAcrossApps())
		emit("Table 2", table)
		b.ReportMetric(growth, "growth_x")
	}
}

// ---------------------------------------------------------------------------
// Table 3 — task classification
// ---------------------------------------------------------------------------

func BenchmarkTable3_TaskClassification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := study(b)
		rows, identified := res.Corpus21.TaskBreakdown(true)
		total := res.Corpus21.TotalModels()
		trows := make([][]string, 0, len(rows))
		for _, r := range rows {
			paper := zoo.PaperTaskCounts[r.Task]
			trows = append(trows, []string{
				r.Task.String(), r.Task.Modality().String(),
				fmt.Sprint(r.Count),
				fmt.Sprintf("%.1f", float64(paper)*studyScale()),
			})
		}
		table := report.Table("Table 3 (measured vs paper-scaled counts)",
			[]string{"task", "modality", "measured", "paper*scale"}, trows)
		idFrac := float64(identified) / float64(total)
		table += fmt.Sprintf("identified: %d/%d = %.1f%% (paper: 91.9%%)\n", identified, total, 100*idFrac)
		emit("Table 3", table)
		b.ReportMetric(100*idFrac, "identified_%")
	}
}

// ---------------------------------------------------------------------------
// Figure 4 — models per framework and category
// ---------------------------------------------------------------------------

func BenchmarkFigure4_FrameworksByCategory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := study(b)
		byCat := res.Corpus21.FrameworkByCategory()
		totals := res.Corpus21.FrameworkTotals()
		sum := 0
		for _, n := range totals {
			sum += n
		}
		out := report.CountBars("Figure 4: model instances per framework (paper: tflite 86.2%, caffe 10.6%, ncnn 2.8%, tf 0.3%, snpe 0.18%)", totals)
		catTotals := map[string]int{}
		for cat, m := range byCat {
			for _, n := range m {
				catTotals[cat] += n
			}
		}
		out += report.CountBars("Figure 4: model instances per category (paper top: COMMUNICATION, FINANCE, PHOTOGRAPHY)", catTotals)
		emit("Figure 4", out)
		b.ReportMetric(100*float64(totals["tflite"])/float64(sum), "tflite_%")
	}
}

// ---------------------------------------------------------------------------
// Figure 5 — snapshot churn
// ---------------------------------------------------------------------------

func BenchmarkFigure5_SnapshotChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := study(b)
		rows := core.TemporalDiffRows(res)
		trows := make([][]string, 0, len(rows))
		for _, r := range rows {
			trows = append(trows, []string{r.Category, fmt.Sprint(r.Added), fmt.Sprint(r.Removed), fmt.Sprint(r.Added - r.Removed)})
		}
		out := report.Table("Figure 5: models added/removed per category (paper: COMMUNICATION gains most, LIFESTYLE loses most)",
			[]string{"category", "added", "removed", "net"}, trows)
		emit("Figure 5", out)
		if len(rows) > 0 {
			b.ReportMetric(float64(rows[0].Added-rows[0].Removed), "top_net_add")
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 6 — layer composition per modality
// ---------------------------------------------------------------------------

func BenchmarkFigure6_LayerComposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := study(b)
		comp := res.Corpus21.LayerComposition()
		var rows [][]string
		for _, m := range []graph.Modality{graph.ModalityImage, graph.ModalityText, graph.ModalityAudio} {
			classes := comp[m]
			for _, cls := range graph.AllClasses() {
				if classes[cls] < 0.005 {
					continue
				}
				rows = append(rows, []string{m.String(), cls.String(), fmt.Sprintf("%.1f%%", 100*classes[cls])})
			}
		}
		out := report.Table("Figure 6: layer class share per modality (paper: conv 34%/10%/20% for image/text/audio)",
			[]string{"modality", "class", "share"}, rows)
		emit("Figure 6", out)
		if img, ok := comp[graph.ModalityImage]; ok {
			b.ReportMetric(100*img[graph.ClassConv], "image_conv_%")
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 7 — FLOPs and parameters per task
// ---------------------------------------------------------------------------

func BenchmarkFigure7_FlopsParamsPerTask(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := study(b)
		rows := res.Corpus21.CostByTask()
		trows := make([][]string, 0, len(rows))
		for _, r := range rows {
			trows = append(trows, []string{
				r.Task.String(), fmt.Sprint(r.Models),
				fmt.Sprintf("%.3g", r.FLOPsMin), fmt.Sprintf("%.3g", r.FLOPsMedian), fmt.Sprintf("%.3g", r.FLOPsMax),
				fmt.Sprintf("%.3g", r.ParamMin), fmt.Sprintf("%.3g", r.ParamMedian), fmt.Sprintf("%.3g", r.ParamMax),
			})
		}
		out := report.Table("Figure 7: FLOPs and parameters per task, sorted by median FLOPs (paper: classification/hair/segmentation heaviest; ~4 orders of magnitude spread)",
			[]string{"task", "models", "flops.min", "flops.med", "flops.max", "par.min", "par.med", "par.max"}, trows)
		// Spread across the population (paper: four orders of magnitude).
		var all []float64
		for _, u := range res.Corpus21.SortedUniques() {
			all = append(all, float64(u.Profile.FLOPs))
		}
		if len(all) > 0 {
			sort.Float64s(all)
			out += fmt.Sprintf("population FLOPs spread: %.2g .. %.2g (%.1f orders of magnitude; paper: ~4)\n",
				all[0], all[len(all)-1], log10(all[len(all)-1]/all[0]))
		}
		emit("Figure 7", out)
	}
}

func log10(x float64) float64 {
	n := 0.0
	for x >= 10 {
		x /= 10
		n++
	}
	for x > 0 && x < 1 {
		x *= 10
		n--
	}
	return n
}

// ---------------------------------------------------------------------------
// Figure 15 — cloud ML APIs
// ---------------------------------------------------------------------------

func BenchmarkFigure15_CloudAPIs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := study(b)
		perAPI, google, aws, total := res.Corpus21.CloudAPIUsage()
		_, g20, a20, total20 := res.Corpus20.CloudAPIUsage()
		out := report.CountBars(
			fmt.Sprintf("Figure 15: apps per cloud ML API — measured %d apps (%d Google, %d AWS); paper 524 (452/72)",
				total, google, aws), perAPI)
		growth := 0.0
		if total20 > 0 {
			growth = float64(total) / float64(total20)
		}
		out += fmt.Sprintf("cloud-app growth 2020->2021: measured %.2fx, paper 2.33x (2020: %d apps, %d Google / %d AWS)\n",
			growth, total20, g20, a20)
		emit("Figure 15", out)
		b.ReportMetric(growth, "growth_x")
	}
}

// ---------------------------------------------------------------------------
// Section 4.2 — device-specific delivery probe
// ---------------------------------------------------------------------------

func BenchmarkSection42_DeviceSpecificDelivery(b *testing.B) {
	res := study(b)
	var pkgs []string
	for _, a := range res.Store.Snap21.Apps {
		if len(a.Models) > 0 {
			pkgs = append(pkgs, a.Package)
		}
		if len(pkgs) >= 5 {
			break
		}
	}
	if len(pkgs) == 0 {
		b.Skip("no ML apps at this scale")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		identical := 0
		for _, pkg := range pkgs {
			same, err := core.DeliveryProbe(context.Background(), res.Store, pkg)
			if err != nil {
				b.Fatal(err)
			}
			if same {
				identical++
			}
		}
		emit("Section 4.2", fmt.Sprintf(
			"delivery probe: %d/%d ML apps served byte-identical APKs to a 3-generation-older device\n(paper: \"we found no evidence of device-specific model customisation\")\n",
			identical, len(pkgs)))
		if identical != len(pkgs) {
			b.Fatalf("device-specific delivery detected: %d/%d", identical, len(pkgs))
		}
	}
}

// ---------------------------------------------------------------------------
// Section 6.1 — model-level optimisation adoption
// ---------------------------------------------------------------------------

func BenchmarkSection61_ModelOptimisations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := study(b)
		opt := res.Corpus21.Optimisations()
		out := report.Comparisons("Section 6.1: optimisation adoption", []report.Comparison{
			{Metric: "clustered models", Paper: 0, Measured: float64(opt.ClusteredModels), Unit: ""},
			{Metric: "pruned models", Paper: 0, Measured: float64(opt.PrunedModels), Unit: ""},
			{Metric: "dequantize-layer models", Paper: 10.3, Measured: 100 * opt.DequantizeFrac, Unit: "%"},
			{Metric: "int8-weight models", Paper: 20.27, Measured: 100 * opt.Int8WeightFrac, Unit: "%"},
			{Metric: "int8-activation models", Paper: 10.31, Measured: 100 * opt.Int8ActivationFrac, Unit: "%"},
			{Metric: "A16W8 hybrid models", Paper: 0, Measured: 100 * opt.HybridA16W8Frac, Unit: "%"},
			{Metric: "near-zero weights", Paper: 3.15, Measured: 100 * opt.MeanWeightSparsity, Unit: "%"},
		})
		ft := res.Corpus21.FineTuning()
		out += report.Comparisons("Section 4.5: fine-tuning", []report.Comparison{
			{Metric: "uniques sharing >=20% layers", Paper: 9.02, Measured: 100 * ft.SharingFrac, Unit: "%"},
			{Metric: "uniques differing <=3 layers", Paper: 4.2, Measured: 100 * ft.SmallDeltaFrac, Unit: "%"},
			{Metric: "on-device training traces", Paper: 0, Measured: float64(ft.OnDeviceTraining), Unit: ""},
		})
		emit("Section 6.1", out)
		b.ReportMetric(100*opt.MeanWeightSparsity, "sparsity_%")
	}
}

// ---------------------------------------------------------------------------
// Section 6.3 — hardware acceleration traces
// ---------------------------------------------------------------------------

func BenchmarkSection63_AccelerationTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := study(b)
		nnapi, xnnpack, snpe := res.Corpus21.AccelerationTraces()
		s := studyScale()
		out := report.Comparisons("Section 6.3: acceleration traces (paper values scaled)", []report.Comparison{
			{Metric: "NNAPI apps", Paper: 71 * s, Measured: float64(nnapi), Unit: "apps"},
			{Metric: "XNNPACK apps", Paper: 1, Measured: float64(xnnpack), Unit: "apps"},
			{Metric: "SNPE apps", Paper: 3, Measured: float64(snpe), Unit: "apps"},
		})
		// SNPE apps blind-ship dlc+tflite twins.
		dualShip := 0
		for _, a := range res.Store.Snap21.Apps {
			if a.UsesSNPE {
				hasDLC := false
				for _, m := range a.Models {
					if m.Framework == "snpe" {
						hasDLC = true
					}
				}
				if hasDLC {
					dualShip++
				}
			}
		}
		out += fmt.Sprintf("SNPE apps shipping tflite+dlc twins: %d (paper: all 3, \"blindly distributed to all devices\")\n", dualShip)
		emit("Section 6.3", out)
	}
}

// ---------------------------------------------------------------------------
// Corpus-level invariants asserted as tests (kept here because they gate
// the figures above).
// ---------------------------------------------------------------------------

func TestStudyShapeInvariants(t *testing.T) {
	cfg := core.DefaultConfig(studySeed, 0.04)
	cfg.UseHTTP = false
	res, err := core.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Corpus21
	if c.UniqueModels() >= c.TotalModels() {
		t.Error("dedup must find duplicates")
	}
	rows, _ := c.TaskBreakdown(true)
	if rows[0].Task != zoo.TaskObjectDetection {
		t.Errorf("top task = %s, want object detection", rows[0].Task)
	}
	// Figure 7 ordering: vision classification should out-cost face
	// detection when both are present.
	med := map[zoo.Task]float64{}
	for _, r := range c.CostByTask() {
		med[r.Task] = r.FLOPsMedian
	}
	if a, ok1 := med[zoo.TaskImageClassification]; ok1 {
		if bb, ok2 := med[zoo.TaskFaceDetection]; ok2 && a <= bb {
			t.Error("classification should out-cost face detection (Figure 7)")
		}
	}
	var _ = analysis.DatasetStats{}
	var _ = stats.Summary{}
}

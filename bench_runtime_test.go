// Runtime benchmark targets: the on-device chapters (Figures 8-14, Table
// 4) and the ablation benches for the simulator's design choices (warmup,
// thermal throttling, big.LITTLE placement, quantisation, the memory
// roofline).
package gaugenn_test

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/gaugenn/gaugenn/internal/bench"
	"github.com/gaugenn/gaugenn/internal/cloudml"
	"github.com/gaugenn/gaugenn/internal/core"
	"github.com/gaugenn/gaugenn/internal/mlrt"
	"github.com/gaugenn/gaugenn/internal/nn/formats"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
	"github.com/gaugenn/gaugenn/internal/power"
	"github.com/gaugenn/gaugenn/internal/report"
	"github.com/gaugenn/gaugenn/internal/soc"
	"github.com/gaugenn/gaugenn/internal/stats"
)

// deviceSweep caches per-device CPU results over the benched models, since
// Figures 8, 9 and 10 share them.
var (
	sweepOnce    sync.Once
	sweepResults map[string][]bench.JobResult
	sweepErr     error
)

func deviceResults(b *testing.B) map[string][]bench.JobResult {
	b.Helper()
	models := benchedModels(b)
	sweepOnce.Do(func() {
		sweepResults = map[string][]bench.JobResult{}
		for _, dev := range soc.AllDeviceModels() {
			res, err := core.Bench(context.Background(), core.RunSpec{Device: dev, Backend: "cpu", Threads: 4, Batch: 1, Runs: 5}, models)
			if err != nil {
				sweepErr = err
				return
			}
			sweepResults[dev] = res
		}
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepResults
}

// substantialModels picks up to n benched models with enough compute
// (>= 30 MFLOPs) that threading and batching effects are visible, padding
// with the largest remaining models when the threshold leaves too few.
func substantialModels(b *testing.B, n int) []core.BenchModel {
	b.Helper()
	all := benchedModels(b)
	var out []core.BenchModel
	for _, m := range all {
		if m.FLOPs >= 3e7 {
			out = append(out, m)
		}
	}
	if len(out) < n {
		rest := make([]core.BenchModel, len(all))
		copy(rest, all)
		sort.Slice(rest, func(i, j int) bool { return rest[i].FLOPs > rest[j].FLOPs })
		seen := map[string]bool{}
		for _, m := range out {
			seen[m.Checksum] = true
		}
		for _, m := range rest {
			if len(out) >= n {
				break
			}
			if !seen[m.Checksum] {
				out = append(out, m)
				seen[m.Checksum] = true
			}
		}
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func latenciesMS(results []bench.JobResult) []float64 {
	var out []float64
	for _, r := range results {
		if r.Error != "" {
			continue
		}
		out = append(out, r.MeanLatency().Seconds()*1000)
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 8 — FLOPs vs latency
// ---------------------------------------------------------------------------

func BenchmarkFigure8_FlopsVsLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := deviceResults(b)
		var out string
		for _, dev := range soc.AllDeviceModels() {
			var flops, lats []float64
			for _, r := range results[dev] {
				if r.Error != "" {
					continue
				}
				flops = append(flops, float64(r.FLOPs))
				lats = append(lats, r.MeanLatency().Seconds()*1000)
			}
			fit, err := stats.FitLine(flops, lats)
			if err != nil {
				continue
			}
			// Achieved throughput spread: how far apart FLOPs/latency lands
			// across models — the quantitative form of "FLOPs is not
			// necessarily a good proxy for estimating a model's on-device
			// performance".
			var thru []float64
			for j := range flops {
				if lats[j] > 0 {
					thru = append(thru, flops[j]/lats[j]/1e6) // GFLOPS
				}
			}
			s := stats.MustSummarize(thru)
			out += fmt.Sprintf("%-5s n=%-3d line fit: lat[ms] = %.3g*FLOPs + %.3g  R2=%.3f  achieved GFLOPS %.2f..%.2f (%.0fx spread)\n",
				dev, len(flops), fit.Slope, fit.Intercept, fit.R2, s.Min, s.Max, s.Max/s.Min)
		}
		out += "(paper: FLOPs is a poor latency proxy — the achieved-throughput spread across models and the device-dependent slopes reproduce that)\n"
		emit("Figure 8", out)
	}
}

// ---------------------------------------------------------------------------
// Figure 9 — latency ECDF per device
// ---------------------------------------------------------------------------

func BenchmarkFigure9_LatencyECDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := deviceResults(b)
		var out string
		means := map[string]float64{}
		for _, dev := range soc.AllDeviceModels() {
			lats := latenciesMS(results[dev])
			out += report.ECDFSummary("latency "+dev, lats, "ms")
			means[dev] = stats.Mean(lats)
		}
		out += report.Comparisons("Figure 9 ratios", []report.Comparison{
			{Metric: "A20 vs S21 slowdown", Paper: 3.4, Measured: means["A20"] / means["S21"], Unit: "x"},
			{Metric: "A70 vs S21 slowdown", Paper: 1.51, Measured: means["A70"] / means["S21"], Unit: "x"},
			{Metric: "Q845 mean latency", Paper: 76, Measured: means["Q845"], Unit: "ms"},
			{Metric: "Q855 mean latency", Paper: 58, Measured: means["Q855"], Unit: "ms"},
			{Metric: "Q888 mean latency", Paper: 35, Measured: means["Q888"], Unit: "ms"},
		})
		out += fmt.Sprintf("S21 vs Q888 (same SoC): %.2fx — open deck slightly faster, as the paper observed\n",
			means["S21"]/means["Q888"])
		emit("Figure 9", out)
		b.ReportMetric(means["A20"]/means["S21"], "a20_vs_s21_x")
		// Shape assertions.
		if !(means["A20"] > means["A70"] && means["A70"] > means["S21"]) {
			b.Fatalf("tier ordering broken: %v", means)
		}
		if !(means["Q845"] > means["Q855"] && means["Q855"] > means["Q888"]) {
			b.Fatalf("generation ordering broken: %v", means)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 10 — energy / power / efficiency distributions on the HDKs
// ---------------------------------------------------------------------------

func BenchmarkFigure10_EnergyPowerEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := deviceResults(b)
		var out string
		medEff := map[string]float64{}
		for _, dev := range soc.HDKModels() {
			var energies, powers, effs []float64
			for _, r := range results[dev] {
				if r.Error != "" {
					continue
				}
				energies = append(energies, r.MeanEnergymJ())
				powers = append(powers, r.AvgPowerW)
				effs = append(effs, r.EfficiencyMFLOPsW())
			}
			out += report.ECDFSummary(dev+" energy/inference", energies, "mJ")
			out += report.ECDFSummary(dev+" power", powers, "W")
			out += report.ECDFSummary(dev+" efficiency", effs, "MFLOP/sW")
			medEff[dev] = stats.Median(effs)
		}
		out += report.Comparisons("Figure 10c median efficiency", []report.Comparison{
			{Metric: "Q845", Paper: 730, Measured: medEff["Q845"], Unit: "MFLOP/sW"},
			{Metric: "Q855", Paper: 765, Measured: medEff["Q855"], Unit: "MFLOP/sW"},
			{Metric: "Q888", Paper: 873, Measured: medEff["Q888"], Unit: "MFLOP/sW"},
		})
		emit("Figure 10", out)
		// Shape: the paper sees only "a minor improvement of the newer
		// devices over Q845 in the middle of the distribution", so the
		// robust assertion is end-to-end: the newest board must not be
		// less efficient than the oldest (strict monotonicity over a small
		// model sample is noise-sensitive).
		if medEff["Q888"] < medEff["Q845"]*0.95 {
			b.Fatalf("efficiency trend broken: %v", medEff)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 11 — batch throughput
// ---------------------------------------------------------------------------

func BenchmarkFigure11_BatchThroughput(b *testing.B) {
	// The paper's Figure 11 population is the 149 TFLite models that ran
	// every batch size on every device — moderate-sized vision nets, not
	// the microsecond-scale text/sensor models whose dispatch overhead
	// hides the device gap. Filter to compute-relevant models.
	models := substantialModels(b, 10)
	batches := []int{1, 2, 5, 10, 25}
	devices := []string{"A20", "A70", "S21"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tput := map[string]map[int]float64{}
		for _, dev := range devices {
			tput[dev] = map[int]float64{}
			for _, batch := range batches {
				results, err := core.Bench(context.Background(), core.RunSpec{Device: dev, Backend: "cpu", Threads: 4, Batch: batch, Runs: 3}, models)
				if err != nil {
					b.Fatal(err)
				}
				var tputs []float64
				for _, r := range results {
					if r.Error != "" {
						continue // OOM at large batch on small devices is expected
					}
					tputs = append(tputs, float64(batch)/r.MeanLatency().Seconds())
				}
				tput[dev][batch] = stats.Mean(tputs)
			}
		}
		rows := make([][]string, 0, len(devices))
		for _, dev := range devices {
			row := []string{dev}
			for _, batch := range batches {
				row = append(row, fmt.Sprintf("%.1f", tput[dev][batch]))
			}
			rows = append(rows, row)
		}
		out := report.Table("Figure 11: mean throughput (inf/s) vs batch size, 4 threads",
			[]string{"device", "b=1", "b=2", "b=5", "b=10", "b=25"}, rows)
		out += report.Comparisons("Figure 11 ratios at batch 25", []report.Comparison{
			{Metric: "S21 vs A70", Paper: 2.14, Measured: tput["S21"][25] / tput["A70"][25], Unit: "x"},
			{Metric: "S21 vs A20", Paper: 5.42, Measured: tput["S21"][25] / tput["A20"][25], Unit: "x"},
		})
		emit("Figure 11", out)
		// Shape: throughput rises with batch on every device.
		for _, dev := range devices {
			if tput[dev][25] <= tput[dev][1] {
				b.Fatalf("%s: batch-25 throughput (%f) should exceed batch-1 (%f)", dev, tput[dev][25], tput[dev][1])
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 12 — threads and affinity
// ---------------------------------------------------------------------------

func BenchmarkFigure12_ThreadAffinity(b *testing.B) {
	models := substantialModels(b, 8)
	cfgs := []soc.CPUConfig{
		{Threads: 2}, {Threads: 2, Affinity: 2},
		{Threads: 4}, {Threads: 4, Affinity: 2}, {Threads: 4, Affinity: 4},
		{Threads: 8}, {Threads: 8, Affinity: 4},
	}
	devices := []string{"A20", "A70", "S21"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := make([][]string, 0, len(devices))
		best := map[string]string{}
		for _, dev := range devices {
			row := []string{dev}
			bestT := 0.0
			for _, cfg := range cfgs {
				var tputs []float64
				for _, m := range models {
					d, err := soc.NewDevice(dev)
					if err != nil {
						b.Fatal(err)
					}
					agent := bench.NewAgent(d, nil, nil)
					r := agent.ExecuteJob(bench.Job{
						ID: "f12", ModelName: m.Name, Model: m.Bytes, Backend: "cpu",
						Threads: cfg.Threads, Affinity: cfg.Affinity, Warmup: 1, Runs: 3,
					})
					if r.Error != "" {
						continue
					}
					tputs = append(tputs, 1/r.MeanLatency().Seconds())
				}
				mean := stats.Mean(tputs)
				row = append(row, fmt.Sprintf("%.1f", mean))
				if mean > bestT {
					bestT = mean
					best[dev] = cfg.String()
				}
			}
			rows = append(rows, row)
		}
		out := report.Table("Figure 12: mean throughput (inf/s) per thread/affinity config",
			[]string{"device", "2", "2a2", "4", "4a2", "4a4", "8", "8a4"}, rows)
		out += fmt.Sprintf("optimal configs: A20=%s A70=%s S21=%s (paper: 4, 2, 4; oversubscribed 4a2/8a4 collapse)\n",
			best["A20"], best["A70"], best["S21"])
		emit("Figure 12", out)
		if best["A70"] != "2" && best["A70"] != "2a2" {
			b.Fatalf("A70 optimum = %s, want 2 threads", best["A70"])
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 13 — CPU runtimes (plain vs XNNPACK vs NNAPI) on Q845
// ---------------------------------------------------------------------------

func BenchmarkFigure13_CPURuntimes(b *testing.B) {
	models := benchedModels(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, means, energies := backendSweep(b, models, []string{"cpu", "xnnpack", "nnapi"})
		out += report.Comparisons("Figure 13 (paper: XNNPACK 1.03x faster / 1.13x more efficient; NNAPI 0.49x speed / 1.66x less efficient)",
			[]report.Comparison{
				{Metric: "XNNPACK speedup", Paper: 1.03, Measured: means["cpu"] / means["xnnpack"], Unit: "x"},
				{Metric: "XNNPACK efficiency gain", Paper: 1.13, Measured: energies["cpu"] / energies["xnnpack"], Unit: "x"},
				{Metric: "NNAPI relative speed", Paper: 0.49, Measured: means["cpu"] / means["nnapi"], Unit: "x"},
				{Metric: "NNAPI energy penalty", Paper: 1.66, Measured: energies["nnapi"] / energies["cpu"], Unit: "x"},
			})
		emit("Figure 13", out)
		if means["nnapi"] <= means["cpu"] {
			b.Fatal("NNAPI should be slower than plain CPU on Q845")
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 14 — SNPE hardware targets on Q845
// ---------------------------------------------------------------------------

func BenchmarkFigure14_SNPETargets(b *testing.B) {
	models := benchedModels(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, means, energies := backendSweep(b, models, []string{"cpu", "gpu", "snpe-cpu", "snpe-gpu", "snpe-dsp"})
		out += report.Comparisons("Figure 14 (paper: DSP 5.72x faster / 20.3x more efficient vs CPU; SNPE GPU 2.28x / 8.39x)",
			[]report.Comparison{
				{Metric: "SNPE DSP speedup vs CPU", Paper: 5.72, Measured: means["cpu"] / means["snpe-dsp"], Unit: "x"},
				{Metric: "SNPE DSP efficiency vs CPU", Paper: 20.3, Measured: energies["cpu"] / energies["snpe-dsp"], Unit: "x"},
				{Metric: "SNPE GPU speedup vs CPU", Paper: 2.28, Measured: means["cpu"] / means["snpe-gpu"], Unit: "x"},
				{Metric: "SNPE GPU efficiency vs CPU", Paper: 8.39, Measured: energies["cpu"] / energies["snpe-gpu"], Unit: "x"},
				{Metric: "SNPE DSP vs vanilla GPU", Paper: 2.97, Measured: means["gpu"] / means["snpe-dsp"], Unit: "x"},
				{Metric: "SNPE GPU vs vanilla GPU", Paper: 1.19, Measured: means["gpu"] / means["snpe-gpu"], Unit: "x"},
			})
		out += "(CPU and GPU run float32; the DSP runs int8, with the accuracy caveat the paper notes)\n"
		emit("Figure 14", out)
		if !(means["snpe-dsp"] < means["snpe-gpu"] && means["snpe-gpu"] < means["cpu"]) {
			b.Fatalf("SNPE target ordering broken: %v", means)
		}
	}
}

// backendSweep benchmarks the models per backend on the Q845 and returns
// the ECDF summaries plus mean latency (ms) and mean energy (mJ) per
// backend, computed over the *commonly compatible* subset — models that
// execute on every backend in the sweep without operator fallbacks. The
// paper compares exactly that population ("the number of models commonly
// compatible is low. This highlights ... the rudimentary support for
// operators across heterogeneous targets").
func backendSweep(b *testing.B, models []core.BenchModel, backendNames []string) (string, map[string]float64, map[string]float64) {
	b.Helper()
	perBackend := map[string][]bench.JobResult{}
	for _, backend := range backendNames {
		results, err := core.Bench(context.Background(), core.RunSpec{Device: "Q845", Backend: backend, Threads: 4, Batch: 1, Runs: 5}, models)
		if err != nil {
			b.Fatal(err)
		}
		perBackend[backend] = results
	}
	compatible := make([]bool, len(models))
	nCompat := 0
	for i := range models {
		ok := true
		for _, backend := range backendNames {
			r := perBackend[backend][i]
			if r.Error != "" || r.FallbackOps > 0 {
				ok = false
				break
			}
		}
		compatible[i] = ok
		if ok {
			nCompat++
		}
	}
	var out string
	out += fmt.Sprintf("commonly compatible models: %d of %d (fallback-free on all of %v)\n",
		nCompat, len(models), backendNames)
	means := map[string]float64{}
	energies := map[string]float64{}
	for _, backend := range backendNames {
		var lats, engs []float64
		for i, r := range perBackend[backend] {
			if !compatible[i] {
				continue
			}
			lats = append(lats, r.MeanLatency().Seconds()*1000)
			engs = append(engs, r.MeanEnergymJ())
		}
		out += report.ECDFSummary("latency "+backend, lats, "ms")
		out += report.ECDFSummary("energy  "+backend, engs, "mJ")
		means[backend] = stats.Mean(lats)
		energies[backend] = stats.Mean(engs)
	}
	return out, means, energies
}

// ---------------------------------------------------------------------------
// Table 4 — scenario energy on the HDKs
// ---------------------------------------------------------------------------

func BenchmarkTable4_ScenarioEnergy(b *testing.B) {
	res := study(b)
	byTask := core.ModelsByTask(res.Corpus21)
	graphsOf := func(tasks ...zoo.Task) []*graph.Graph {
		var out []*graph.Graph
		for _, t := range tasks {
			for _, m := range byTask[t] {
				if m.Graph.Graph != nil {
					out = append(out, m.Graph.Graph)
				}
			}
		}
		return out
	}
	sound := graphsOf(zoo.TaskSoundRecognition)
	typing := graphsOf(zoo.TaskAutoComplete)
	segm := graphsOf(zoo.TaskSemanticSegmentation)
	if len(sound) == 0 || len(typing) == 0 || len(segm) == 0 {
		b.Skip("scenario tasks not all present at this scale")
	}
	paper := map[string]map[string][3]float64{ // device -> scenario -> avg/median/max
		"Q845": {"Sound R.": {0.6350, 0.0652, 2.5277}, "Typing": {0.0752, 0.0292, 0.1993}, "Segm.": {1221.7, 619.62, 3835.2}},
		"Q855": {"Sound R.": {1.0311, 0.1821, 5.0327}, "Typing": {0.1192, 0.0387, 0.3404}, "Segm.": {1133.4, 489.10, 3239.7}},
		"Q888": {"Sound R.": {0.7950, 0.1009, 4.4132}, "Typing": {0.1001, 0.0315, 0.3403}, "Segm.": {1062.7, 455.71, 3290.8}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := [][]string{}
		byDev := map[string]map[string]bench.ScenarioStats{}
		for _, dev := range soc.HDKModels() {
			byDev[dev] = map[string]bench.ScenarioStats{}
			for _, sc := range []struct {
				s      bench.Scenario
				models []*graph.Graph
			}{
				{bench.SoundRecognitionScenario(), sound},
				{bench.TypingScenario(), typing},
				{bench.SegmentationScenario(), segm},
			} {
				st, err := bench.RunScenario(context.Background(), dev, sc.s, sc.models, "cpu")
				if err != nil {
					b.Fatal(err)
				}
				byDev[dev][st.Scenario] = st
				p := paper[dev][st.Scenario]
				rows = append(rows, []string{
					dev, st.Scenario,
					fmt.Sprintf("%.4f±%.4f", st.Avg, st.Std),
					fmt.Sprintf("%.4f", st.Median),
					fmt.Sprintf("%.4f", st.Min),
					fmt.Sprintf("%.4f", st.Max),
					fmt.Sprintf("%.4f/%.2f/%.1f", p[0], p[1], p[2]),
				})
			}
		}
		out := report.Table("Table 4: scenario battery discharge (mAh); last column = paper avg/median/max",
			[]string{"device", "use-case", "avg", "median", "min", "max", "paper(a/m/M)"}, rows)
		segQ := byDev["Q845"]["Segm."]
		out += fmt.Sprintf("1h segmentation on a 4000 mAh battery: avg %.1f%% (paper: 26.6-30.5%%, max up to 95.9%%)\n",
			100*segQ.Avg/4000)
		emit("Table 4", out)
		// Shape: segmentation >> sound recognition > typing on every device.
		for _, dev := range soc.HDKModels() {
			if !(byDev[dev]["Segm."].Avg > byDev[dev]["Sound R."].Avg && byDev[dev]["Sound R."].Avg > byDev[dev]["Typing"].Avg) {
				b.Fatalf("%s scenario ordering broken", dev)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

// BenchmarkAblation_Warmup quantifies the cold-cache outliers the harness
// discards via warmup runs.
func BenchmarkAblation_Warmup(b *testing.B) {
	models := benchedModels(b)
	m := models[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev, err := soc.NewDevice("Q845")
		if err != nil {
			b.Fatal(err)
		}
		eng, err := mlrt.NewEngine(dev, "cpu")
		if err != nil {
			b.Fatal(err)
		}
		g, err := decodeBench(m)
		if err != nil {
			b.Fatal(err)
		}
		sess, err := eng.Load(g, mlrt.Options{Threads: 4})
		if err != nil {
			b.Fatal(err)
		}
		cold, err := sess.Infer(nil)
		if err != nil {
			b.Fatal(err)
		}
		warm, err := sess.Infer(nil)
		if err != nil {
			b.Fatal(err)
		}
		ratio := cold.Latency.Seconds() / warm.Latency.Seconds()
		emit("Ablation warmup", fmt.Sprintf("cold %v vs warm %v => %.2fx cold penalty (why the harness runs warmup inferences)\n",
			cold.Latency, warm.Latency, ratio))
		b.ReportMetric(ratio, "cold_penalty_x")
		if ratio < 1.3 {
			b.Fatalf("cold run should be clearly slower (ratio %.2f)", ratio)
		}
	}
}

// BenchmarkAblation_Thermal shows sustained-inference throttling and the
// open-deck advantage.
func BenchmarkAblation_Thermal(b *testing.B) {
	models := benchedModels(b)
	var heavy core.BenchModel
	for _, m := range models {
		if m.FLOPs > heavy.FLOPs {
			heavy = m
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sustained := func(devModel string) (first, last time.Duration) {
			dev, err := soc.NewDevice(devModel)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := mlrt.NewEngine(dev, "cpu")
			if err != nil {
				b.Fatal(err)
			}
			g, err := decodeBench(heavy)
			if err != nil {
				b.Fatal(err)
			}
			sess, err := eng.Load(g, mlrt.Options{Threads: 4})
			if err != nil {
				b.Fatal(err)
			}
			sess.Infer(nil) // warmup
			for j := 0; j < 60; j++ {
				r, err := sess.Infer(nil)
				if err != nil {
					b.Fatal(err)
				}
				if j == 0 {
					first = r.Latency
				}
				last = r.Latency
			}
			return first, last
		}
		pf, pl := sustained("S21")
		bf, bl := sustained("Q888")
		phone := pl.Seconds() / pf.Seconds()
		board := bl.Seconds() / bf.Seconds()
		emit("Ablation thermal", fmt.Sprintf(
			"60 sustained inferences of %s:\n  S21 (phone):      %v -> %v (%.2fx degradation)\n  Q888 (open deck): %v -> %v (%.2fx degradation)\n(the open deck's heat dissipation explains its edge over the same-silicon S21)\n",
			heavy.Name, pf, pl, phone, bf, bl, board))
		if phone <= board {
			b.Fatal("phone should throttle harder than the open-deck board")
		}
	}
}

// BenchmarkAblation_BigLittle contrasts big-island pinning with
// little-core-dragged placements.
func BenchmarkAblation_BigLittle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dev, err := soc.NewDevice("S21")
		if err != nil {
			b.Fatal(err)
		}
		big4, _ := dev.CPUThroughputGFLOPS(soc.CPUConfig{Threads: 4})    // X1 + 3xA78
		spill6, _ := dev.CPUThroughputGFLOPS(soc.CPUConfig{Threads: 6})  // spills onto A55s
		little4, _ := dev.CPUThroughputGFLOPS(soc.CPUConfig{Threads: 8}) // all cores
		emit("Ablation big.LITTLE", fmt.Sprintf(
			"S21 effective GFLOPS: 4 threads (big cores) %.1f; 6 threads (spilling to A55) %.1f; 8 threads (all cores) %.1f\n(spilling onto the little island drags the barrier; Figure 12's mechanism)\n",
			big4, spill6, little4))
		if !(big4 > spill6 || big4 > little4) {
			b.Fatal("big-core placement should win")
		}
	}
}

// BenchmarkAblation_Quantisation contrasts fp32 CPU/GPU with int8 DSP for
// the same model.
func BenchmarkAblation_Quantisation(b *testing.B) {
	g, err := zoo.Build(zoo.Spec{Task: zoo.TaskObjectDetection, Seed: 4242})
	if err != nil {
		b.Fatal(err)
	}
	data, err := core.EncodeTFLite(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := func(backend string) bench.JobResult {
			dev, err := soc.NewDevice("Q888")
			if err != nil {
				b.Fatal(err)
			}
			agent := bench.NewAgent(dev, nil, nil)
			return agent.ExecuteJob(bench.Job{ID: backend, ModelName: g.Name, Model: data,
				Backend: backend, Threads: 4, Warmup: 2, Runs: 5})
		}
		fp32 := run("cpu")
		gpu := run("snpe-gpu")
		int8 := run("snpe-dsp")
		emit("Ablation quantisation", fmt.Sprintf(
			"%s on Q888: cpu fp32 %v (%.1f mJ) | snpe-gpu fp32 %v (%.1f mJ) | snpe-dsp int8 %v (%.1f mJ)\n(int8 moves a quarter of the bytes and rides the DSP's fixed-point units; accuracy effects are out of scope, as in the paper)\n",
			g.Name, fp32.MeanLatency(), fp32.MeanEnergymJ(),
			gpu.MeanLatency(), gpu.MeanEnergymJ(),
			int8.MeanLatency(), int8.MeanEnergymJ()))
		if int8.MeanLatency() >= fp32.MeanLatency() {
			b.Fatal("int8 DSP should beat fp32 CPU")
		}
	}
}

// BenchmarkAblation_MemoryRoofline shows a compute-bound conv against a
// memory-bound depthwise/elementwise model at equal FLOPs budget.
func BenchmarkAblation_MemoryRoofline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dev, err := soc.NewDevice("A20") // 6 GB/s: the tightest roofline
		if err != nil {
			b.Fatal(err)
		}
		compute := []soc.Work{{FLOPs: 2e8, Bytes: 2e5, Efficiency: 0.75}}
		st1, err := dev.ExecuteCPU(soc.CPUConfig{Threads: 4}, compute, nil)
		if err != nil {
			b.Fatal(err)
		}
		dev.Reset()
		memory := []soc.Work{{FLOPs: 2e8, Bytes: 2e9, Efficiency: 0.75}}
		st2, err := dev.ExecuteCPU(soc.CPUConfig{Threads: 4}, memory, nil)
		if err != nil {
			b.Fatal(err)
		}
		emit("Ablation roofline", fmt.Sprintf(
			"A20, identical 200 MFLOP workloads: compute-bound %v vs memory-bound %v (%.1fx slower)\n(why FLOPs is a poor latency proxy — Section 5.1)\n",
			st1.Latency, st2.Latency, st2.Latency.Seconds()/st1.Latency.Seconds()))
		if st2.Latency <= st1.Latency {
			b.Fatal("memory-bound work should be slower")
		}
	}
}

func decodeBench(m core.BenchModel) (*graph.Graph, error) {
	f, ok := formats.ByName("tflite")
	if !ok {
		return nil, fmt.Errorf("tflite format missing")
	}
	return f.Decode(formats.FileSet{"m.tflite": m.Bytes})
}

var _ = power.DefaultRailVoltage

// BenchmarkAblation_Cohabitation quantifies the Section 8.1 "DNN
// co-habitation" forecast: two co-resident models time-sharing one device.
func BenchmarkAblation_Cohabitation(b *testing.B) {
	det, err := zoo.Build(zoo.Spec{Task: zoo.TaskObjectDetection, Seed: 71})
	if err != nil {
		b.Fatal(err)
	}
	segm, err := zoo.Build(zoo.Spec{Task: zoo.TaskSemanticSegmentation, Seed: 72})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunCohabitation(context.Background(), "S21", []*graph.Graph{det, segm}, "cpu", 10)
		if err != nil {
			b.Fatal(err)
		}
		emit("Ablation cohabitation", fmt.Sprintf(
			"S21, %s + %s co-resident:\n  %-28s solo %.1f inf/s -> cohabited %.1f inf/s (%.2fx interference)\n  %-28s solo %.1f inf/s -> cohabited %.1f inf/s (%.2fx interference)\n(Section 8.1: \"we also anticipate the co-existence and parallel runtime of more than one DNN\")\n",
			res.Models[0], res.Models[1],
			res.Models[0], res.SoloInfPerSec[0], res.CohabInfPerSec[0], res.InterferenceFactor[0],
			res.Models[1], res.SoloInfPerSec[1], res.CohabInfPerSec[1], res.InterferenceFactor[1]))
		for j, f := range res.InterferenceFactor {
			if f <= 1 {
				b.Fatalf("model %d shows no interference (%.2f)", j, f)
			}
		}
	}
}

// BenchmarkAblation_CloudOffload contrasts on-device inference across
// device tiers with cloud offloading over mobile links — the "consistent
// QoE, which is not dependent on the target device" trade-off of
// Section 6.4.
func BenchmarkAblation_CloudOffload(b *testing.B) {
	g, err := zoo.Build(zoo.Spec{Task: zoo.TaskObjectDetection, Seed: 73, Opts: zoo.ArchOpts{Width: 1, Resolution: 192, Classes: 20}})
	if err != nil {
		b.Fatal(err)
	}
	data, err := core.EncodeTFLite(g)
	if err != nil {
		b.Fatal(err)
	}
	srv := cloudml.NewInferenceServer()
	base, shutdown, err := srv.Listen()
	if err != nil {
		b.Fatal(err)
	}
	defer shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		onDevice := map[string]time.Duration{}
		for _, devModel := range []string{"A20", "S21"} {
			dev, err := soc.NewDevice(devModel)
			if err != nil {
				b.Fatal(err)
			}
			agent := bench.NewAgent(dev, nil, nil)
			r := agent.ExecuteJob(bench.Job{ID: devModel, Model: data, Backend: "cpu", Threads: 4, Warmup: 2, Runs: 5})
			if r.Error != "" {
				b.Fatal(r.Error)
			}
			onDevice[devModel] = r.MeanLatency()
		}
		const frameBytes = 120 * 1024 // one JPEG frame
		cloud := map[string]time.Duration{}
		for _, n := range []cloudml.NetworkProfile{cloudml.NetworkWiFi, cloudml.Network4G} {
			client := cloudml.NewOffloadClient(base, n)
			var total time.Duration
			for j := 0; j < 3; j++ {
				l, err := client.Infer("Vision/Object Detection", frameBytes)
				if err != nil {
					b.Fatal(err)
				}
				total += l
			}
			cloud[n.Name] = total / 3
		}
		spreadDev := float64(onDevice["A20"]) / float64(onDevice["S21"])
		emit("Ablation cloud offload", fmt.Sprintf(
			"%s (%d MFLOPs), one frame:\n  on-device: A20 %v vs S21 %v (%.1fx spread across tiers)\n  offloaded: wifi %v, 4g %v — identical for every device tier\n(Section 6.4: offloading buys device-independent QoE at privacy and monetary cost)\n",
			g.Name, g.ParamCount()/1000, onDevice["A20"], onDevice["S21"], spreadDev,
			cloud["wifi"], cloud["4g"]))
		if spreadDev < 1.5 {
			b.Fatalf("on-device tier spread %.2f should be large", spreadDev)
		}
	}
}

// BenchmarkAblation_HybridQuant measures the A16W8 opportunity Section 6.1
// found unexploited: int8 weights with int16 activations against plain
// int8 and fp32 on the DSP path.
func BenchmarkAblation_HybridQuant(b *testing.B) {
	build := func() *graph.Graph {
		g, err := zoo.Build(zoo.Spec{Task: zoo.TaskImageClassification, Seed: 74})
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := func(g *graph.Graph) bench.JobResult {
			data, err := core.EncodeTFLite(g)
			if err != nil {
				b.Fatal(err)
			}
			dev, err := soc.NewDevice("Q888")
			if err != nil {
				b.Fatal(err)
			}
			agent := bench.NewAgent(dev, nil, nil)
			return agent.ExecuteJob(bench.Job{ID: "hq", Model: data, Backend: "snpe-dsp", Threads: 4, Warmup: 2, Runs: 5})
		}
		fp32 := run(build())
		int8g := build()
		if err := zoo.QuantizeModel(int8g, 0.01); err != nil {
			b.Fatal(err)
		}
		int8 := run(int8g)
		hybridg := build()
		if err := zoo.HybridQuantizeA16W8(hybridg, 0.01); err != nil {
			b.Fatal(err)
		}
		hybrid := run(hybridg)
		emit("Ablation hybrid quantisation", fmt.Sprintf(
			"Q888 DSP: fp32-source %v | int8 %v | A16W8 hybrid %v\n(A16W8 sits between int8 speed and fp32 representational headroom — the scheme \"existing deployment methodologies fail to exploit\", Section 6.1)\n",
			fp32.MeanLatency(), int8.MeanLatency(), hybrid.MeanLatency()))
		if hybrid.MeanLatency() < int8.MeanLatency() {
			b.Fatal("hybrid should not beat pure int8 on bytes moved")
		}
	}
}

// Energy-study reproduces Table 4: scenario-driven battery discharge for
// three use cases — sound recognition over 1 hour of audio, keyboard
// auto-completion over a day's 275 words, and 15 FPS person segmentation
// through a 1-hour video call — across the three Snapdragon HDK
// generations, plus the Figure 10 energy/power/efficiency distributions.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os/signal"
	"syscall"

	"github.com/gaugenn/gaugenn/internal/bench"
	"github.com/gaugenn/gaugenn/internal/core"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
	"github.com/gaugenn/gaugenn/internal/report"
	"github.com/gaugenn/gaugenn/internal/soc"
)

func main() {
	// v2: scenarios, the study and the distribution sweeps all share one
	// signal-cancellable context.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	// Build scenario model populations straight from the zoo (several
	// independent deployments per task, as found in the wild).
	rng := rand.New(rand.NewSource(99))
	modelsFor := func(task zoo.Task, n int) []*graph.Graph {
		var out []*graph.Graph
		for i := 0; i < n; i++ {
			g, err := zoo.Build(zoo.Spec{Task: task, Seed: int64(i + 1), Opts: zoo.DefaultOptsFor(task, rng)})
			if err != nil {
				log.Fatal(err)
			}
			out = append(out, g)
		}
		return out
	}
	scenarios := []struct {
		sc     bench.Scenario
		models []*graph.Graph
	}{
		{bench.SoundRecognitionScenario(), modelsFor(zoo.TaskSoundRecognition, 6)},
		{bench.TypingScenario(), modelsFor(zoo.TaskAutoComplete, 5)},
		{bench.SegmentationScenario(), modelsFor(zoo.TaskSemanticSegmentation, 6)},
	}

	fmt.Println("Table 4: scenario-driven battery discharge (mAh)")
	rows := [][]string{}
	for _, device := range soc.HDKModels() {
		for _, s := range scenarios {
			st, err := bench.RunScenario(ctx, device, s.sc, s.models, "cpu")
			if err != nil {
				log.Fatal(err)
			}
			rows = append(rows, []string{
				device, st.Scenario,
				fmt.Sprintf("%.4f ± %.4f", st.Avg, st.Std),
				fmt.Sprintf("%.4f", st.Median),
				fmt.Sprintf("%.4f", st.Min),
				fmt.Sprintf("%.4f", st.Max),
			})
		}
	}
	fmt.Print(report.Table("", []string{"device", "use-case", "avg", "median", "min", "max"}, rows))

	// An hour of segmentation against a 4000 mAh battery (the paper's
	// 26.6-30.5% average discharge observation).
	segm := scenarios[2]
	st, err := bench.RunScenario(ctx, "Q845", segm.sc, segm.models, "cpu")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n1h segmentation on Q845 = %.0f mAh avg -> %.1f%% of a 4000 mAh battery (paper: 26.6-30.5%%)\n",
		st.Avg, 100*st.Avg/4000)

	// Figure 10: distributions over a broader model population.
	fmt.Println("\nFigure 10: inference energy / power / efficiency (CPU, 4 threads)")
	study, err := core.Run(ctx, core.Config{Seed: 5, Scale: 0.04, KeepGraphs: true})
	if err != nil {
		log.Fatal(err)
	}
	models, err := core.SelectBenchModels(study.Corpus21, 40)
	if err != nil {
		log.Fatal(err)
	}
	for _, device := range soc.HDKModels() {
		results, err := core.Bench(ctx, core.RunSpec{
			Device: device, Backend: "cpu", Threads: 4, Batch: 1, Runs: 3,
		}, models)
		if err != nil {
			log.Fatal(err)
		}
		var energies, effs []float64
		for _, r := range results {
			if r.Error != "" {
				continue
			}
			energies = append(energies, r.MeanEnergymJ())
			effs = append(effs, r.EfficiencyMFLOPsW())
		}
		fmt.Print(report.ECDFSummary(device+" energy", energies, "mJ/inf"))
		fmt.Print(report.ECDFSummary(device+" efficiency", effs, "MFLOP/sW"))
	}
}

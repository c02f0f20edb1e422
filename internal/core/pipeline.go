// Package core wires gaugeNN's three stages together (Figure 1): DNN
// retrieval (crawl, extract, validate), offline analysis (model and app
// characterisation) and model benchmarking (on-device latency and energy).
// It is the library's primary entry point; the root gaugenn package
// re-exports it.
//
// The study hot path is a concurrent pipeline: both snapshots run in
// parallel, each over a bounded crawl/extract worker pool that ingests
// every app into the corpus slot of its crawl index, so the merged corpus
// does not depend on scheduling, with per-checksum analysis deduplicated
// across workers and snapshots. See docs/pipeline.md for the architecture
// and the Workers/Scale tuning knobs.
package core

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sort"

	"github.com/gaugenn/gaugenn/internal/analysis"
	"github.com/gaugenn/gaugenn/internal/bench"
	"github.com/gaugenn/gaugenn/internal/crawler"
	"github.com/gaugenn/gaugenn/internal/errs"
	"github.com/gaugenn/gaugenn/internal/event"
	"github.com/gaugenn/gaugenn/internal/nn/formats"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
	"github.com/gaugenn/gaugenn/internal/playstore"
	"github.com/gaugenn/gaugenn/internal/power"
	"github.com/gaugenn/gaugenn/internal/soc"
	"github.com/gaugenn/gaugenn/internal/store"
)

// Config parameterises a full study run.
type Config struct {
	// Seed drives the synthetic store; equal seeds reproduce identical
	// studies.
	Seed int64
	// Scale sizes the store relative to the paper's 16.6k-app crawl
	// (1.0 = full scale; 0.02-0.1 for quick runs), and so sets chart
	// depth: a crawl visits each category's top 500×Scale apps, capped at
	// the store's 500 (playstore.ChartDepth).
	Scale float64
	// UseHTTP routes the crawl through the store's HTTP API (the
	// realistic path); false extracts in process for speed. Both visit
	// the same apps in the same order and produce byte-identical corpora.
	UseHTTP bool
	// KeepGraphs retains decoded graphs on the corpora for benchmarking.
	KeepGraphs bool
	// Workers bounds the per-snapshot crawl/extract/ingest fan-out.
	// Zero (the default) uses GOMAXPROCS; results are byte-identical for
	// a fixed seed regardless of the value. Both snapshots run
	// concurrently, so up to 2*Workers goroutines are in flight while
	// both are active — deliberate: goroutine parallelism stays capped by
	// GOMAXPROCS, and the full per-snapshot budget lets the larger 2021
	// snapshot saturate every core once 2020 completes (a split budget
	// would idle half the cores for 2021's tail).
	Workers int
	// CacheDir, when non-empty, backs the run with a persistent
	// content-addressed study store rooted there: extraction reports,
	// payload decode outcomes, per-checksum analysis records and the
	// final corpus snapshots are written through as they are produced,
	// and the study is appended to the store's manifest. See
	// docs/persistence.md.
	CacheDir string
	// Resume makes a CacheDir-backed run consult existing store entries
	// before computing: APKs whose bytes were extracted before load their
	// persisted report, payloads decoded before skip graph decode, and
	// checksums analysed before skip profiling. False still writes
	// through (a cold run that populates the cache). Ignored without
	// CacheDir.
	Resume bool
	// FailureBudget is the fraction of each snapshot's apps allowed to
	// fail retrieval or extraction before the study aborts. Per-app
	// failures under the budget are quarantined — the app is dropped from
	// the corpus, surfaced as a StageWarning event and collected in
	// StudyResult.Quarantine — and the study completes on the survivors;
	// once a snapshot's failures exceed floor(FailureBudget*total) the run
	// stops with a *errs.BudgetError (errors.Is(err, errs.ErrBudgetExceeded)).
	// Zero means the 5% default; negative tolerates no failures at all.
	FailureBudget float64
	// Transport, when non-nil, supplies the HTTP transport for each
	// snapshot's crawl client (UseHTTP runs only). Fault-injection
	// harnesses interpose here; nil uses the default transport.
	Transport func(snapshot string) http.RoundTripper
	// StoreFS, when non-nil, replaces the filesystem beneath the study
	// store (CacheDir runs only). Fault-injection harnesses interpose
	// here; nil uses the real disk.
	StoreFS store.FS
	// OnEvent, when non-nil, receives the run's typed event stream: a
	// StageStart/StageProgress/StageDone sequence per stage ("crawl",
	// "analyse", "persist" — each tagged with its snapshot label), a
	// StageWarning per quarantined app, plus one CacheStats event after
	// the persist stage of a CacheDir-backed run. Handlers may be called
	// concurrently from both snapshot pipelines and must be safe for
	// concurrent use.
	OnEvent func(event.Event)
}

// DefaultConfig returns a quick-study configuration.
func DefaultConfig(seed int64, scale float64) Config {
	return Config{Seed: seed, Scale: scale, UseHTTP: true, KeepGraphs: true}
}

// workerCount resolves the Workers knob (0 = GOMAXPROCS).
func (cfg Config) workerCount() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// StudyResult is everything a study produced.
type StudyResult struct {
	// Corpus20/Corpus21 are the analysed snapshots (Table 2's columns).
	Corpus20, Corpus21 *analysis.Corpus
	// Store gives access to the generated ground truth (device-delivery
	// probes, re-crawls).
	Store *playstore.Study
	// Persist summarises the persistence stage of a CacheDir-backed run:
	// the study's manifest identity, its corpus CAS keys, and how much
	// work was served warm versus computed. Nil without Config.CacheDir.
	Persist *PersistStats
	// Quarantine lists the apps dropped under the failure budget, sorted
	// by snapshot then package. Empty on a clean run; a run that returns
	// an error never produces a result, so every entry here was tolerated.
	Quarantine []*errs.AppError
}

// needsExtraction reports whether the in-process fast path must package
// and extract the app instead of shortcutting to a bare AppInfo. It
// mirrors what the extractor can detect from the APK: models, framework
// libraries, cloud API call sites, and the acceleration/lazy-download dex
// traces (an NNAPI delegate call site, for instance, legitimately trips
// the tflite library detector) — so the fast path and the HTTP path
// produce the same corpus.
func needsExtraction(a *playstore.App) bool {
	return a.HasML() || a.UsesNNAPI || a.UsesXNNPACK || a.UsesSNPE || a.LazyModelDownload
}

// DeliveryProbe re-downloads an app under a different device profile and
// compares the served bytes — the Section 4.2 experiment that found "no
// evidence of device-specific model customisation".
func DeliveryProbe(ctx context.Context, study *playstore.Study, pkg string) (identical bool, err error) {
	srv := playstore.NewServer(study.Snap21)
	base, shutdown, err := srv.Listen()
	if err != nil {
		return false, err
	}
	defer shutdown()
	modern := crawler.NewClient(base) // SM-G977B (S10 5G)
	legacy := crawler.NewClient(base)
	legacy.DeviceModel = "SM-G935F" // S7 edge, three generations older
	legacy.UserAgent = "Android-Finsky/7.0 (api=3,versionCode=70000,device=hero2lte)"
	a, err := modern.DownloadAPK(ctx, pkg)
	if err != nil {
		return false, err
	}
	b, err := legacy.DownloadAPK(ctx, pkg)
	if err != nil {
		return false, err
	}
	return bytes.Equal(a, b), nil
}

// BenchModel is a corpus model selected for on-device benchmarking.
type BenchModel struct {
	Name     string
	Task     zoo.Task
	Checksum string
	FLOPs    int64
	Bytes    []byte // tflite-serialised
}

// SelectBenchModels picks up to n unique models (graphs retained) from the
// corpus, serialised to tflite bytes for the harness, deterministically
// ordered by checksum. Models whose inference the runtime cannot place
// (e.g. absurd batch) surface later as job errors, matching the paper's
// "models that successfully ran" framing.
func SelectBenchModels(c *analysis.Corpus, n int) ([]BenchModel, error) {
	var out []BenchModel
	for _, u := range c.SortedUniques() {
		if u.Graph == nil {
			continue
		}
		data, err := formats.EncodeTFLite(u.Graph)
		if err != nil {
			return nil, err
		}
		out = append(out, BenchModel{
			Name:     u.Name,
			Task:     u.Task,
			Checksum: string(u.Checksum),
			FLOPs:    u.Profile.FLOPs,
			Bytes:    data,
		})
		if n > 0 && len(out) >= n {
			break
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: corpus retains no graphs (KeepGraphs=false?)")
	}
	return out, nil
}

// RunSpec names one on-device benchmark: the device/backend pair plus
// the job shape. Zero-valued knobs take the agent's defaults (4 threads,
// batch 1, 2 warmups, 10 runs), so RunSpec{Device: "Q845", Backend:
// "cpu"} is a complete spec.
type RunSpec struct {
	// Device is a Table 1 device model ("A20", "A70", "S21", "Q845",
	// "Q855", "Q888").
	Device string
	// Backend is a runtime backend ("cpu", "xnnpack", "nnapi", "gpu",
	// "snpe-cpu", "snpe-gpu", "snpe-dsp").
	Backend string
	// Threads / Batch / Warmup / Runs shape each job (0 = agent default).
	Threads, Batch, Warmup, Runs int
	// Execute selects the measured backend: models run for real through
	// the internal/exec interpreter, results carry an output digest, and
	// graphs with unsupported operators fail the job with
	// errs.ErrUnsupportedOps.
	Execute bool
}

// Bench benchmarks a model set under a RunSpec via the in-process harness
// and returns per-model results in input order. ctx is checked between
// models; a cancelled run returns a *errs.StageError (stage "bench")
// wrapping the context error, with the completed prefix discarded.
func Bench(ctx context.Context, spec RunSpec, models []BenchModel) ([]bench.JobResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	dev, err := soc.NewDevice(spec.Device)
	if err != nil {
		return nil, err
	}
	mon := power.NewMonitor()
	agent := bench.NewAgent(dev, nil, mon)
	out := make([]bench.JobResult, 0, len(models))
	for i, m := range models {
		if err := ctx.Err(); err != nil {
			return nil, errs.Stage("bench", "", err)
		}
		dev.Reset() // cold, cooled device per model, as the harness ensures
		res := agent.ExecuteJob(bench.Job{
			ID:        fmt.Sprintf("%s-%s-%d", spec.Device, spec.Backend, i),
			ModelName: m.Name,
			Model:     m.Bytes,
			Backend:   spec.Backend,
			Threads:   spec.Threads,
			Batch:     spec.Batch,
			Warmup:    spec.Warmup,
			Runs:      spec.Runs,
			Execute:   spec.Execute,
		})
		out = append(out, res)
	}
	return out, nil
}

// ModelsByTask returns the corpus' retained graphs grouped by task, for the
// Table 4 scenario runner.
func ModelsByTask(c *analysis.Corpus) map[zoo.Task][]*BenchModelGraph {
	out := map[zoo.Task][]*BenchModelGraph{}
	for _, u := range c.SortedUniques() {
		if u.Graph == nil {
			continue
		}
		out[u.Task] = append(out[u.Task], &BenchModelGraph{Name: u.Name, Graph: u})
	}
	for _, v := range out {
		sort.Slice(v, func(i, j int) bool { return v[i].Name < v[j].Name })
	}
	return out
}

// BenchModelGraph pairs a model name with its corpus record.
type BenchModelGraph struct {
	Name  string
	Graph *analysis.Unique
}

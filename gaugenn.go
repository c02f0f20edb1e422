// Package gaugenn is a full reproduction of "Smart at what cost?
// Characterising Mobile Deep Neural Networks in the wild" (ACM IMC 2021):
// the gaugeNN measurement pipeline — store crawling, APK model extraction
// and validation, offline DNN analysis, and on-device latency/energy
// benchmarking — rebuilt on synthetic but mechanism-faithful substrates
// (a generated Play Store, structural model formats, and simulated mobile
// SoCs wired to a virtual power monitor). docs/pipeline.md describes the
// pipeline; the root benchmarks print each table and figure beside the
// paper's own numbers.
//
// Quick start (the v2, context-first API):
//
//	study := gaugenn.NewStudy(gaugenn.WithSeed(42), gaugenn.WithScale(0.05))
//	res, err := study.Run(ctx)
//	if err != nil { ... }
//	fmt.Println(res.Corpus21.Dataset()) // Table 2's 2021 column
//
// Cancelling ctx stops the pipeline promptly (errors.Is(err,
// gaugenn.ErrCancelled)); Study.Events streams typed progress; a
// WithCacheDir study persists everything and resumes warm. The three
// stages can also be driven independently: see Study.Run for the
// crawl+extract+analyse path, SelectBenchModels/Bench for on-device
// benchmarking, and FleetRun for matrix sweeps across a device lab.
// docs/api.md maps the removed v1 calls (RunStudy, Config, positional
// DeviceRun) onto these.
package gaugenn

import (
	"context"

	"github.com/gaugenn/gaugenn/internal/analysis"
	"github.com/gaugenn/gaugenn/internal/bench"
	"github.com/gaugenn/gaugenn/internal/core"
	"github.com/gaugenn/gaugenn/internal/fleet"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
	"github.com/gaugenn/gaugenn/internal/soc"
)

// StudyResult holds both analysed snapshots; see core.StudyResult.
type StudyResult = core.StudyResult

// PersistStats summarises a cached run's warm/cold work split; see
// core.PersistStats.
type PersistStats = core.PersistStats

// StudyTables renders the study's report tables (Table 2/3, Figures
// 4/5/15) from a pair of corpora, keyed by file name.
func StudyTables(c20, c21 *Corpus) map[string]string { return core.StudyTables(c20, c21) }

// Corpus is an analysed snapshot (records, uniques, app signals).
type Corpus = analysis.Corpus

// BenchModel is a model selected for on-device benchmarking.
type BenchModel = core.BenchModel

// JobResult is one on-device measurement record.
type JobResult = bench.JobResult

// Task identifies a model's use case (Table 3 taxonomy).
type Task = zoo.Task

// Modality is a model's input modality (image/text/audio/sensor).
type Modality = graph.Modality

// SelectBenchModels picks up to n unique models from a corpus for
// benchmarking, serialised for the harness.
func SelectBenchModels(c *Corpus, n int) ([]BenchModel, error) {
	return core.SelectBenchModels(c, n)
}

// Devices lists the Table 1 device models.
func Devices() []string { return soc.AllDeviceModels() }

// HDKs lists the energy-instrumented open-deck boards.
func HDKs() []string { return soc.HDKModels() }

// FleetMatrix is a benchmark matrix spec (models x devices x backends, with
// optional Table 4 scenarios) for the device-lab orchestrator.
type FleetMatrix = fleet.Matrix

// FleetPool is a pool of benchmark rigs a matrix dispatches across.
type FleetPool = fleet.Pool

// FleetConfig tunes one fleet run (retry cap, thermal pacing, streaming).
type FleetConfig = fleet.Config

// FleetModel is one model entry of a fleet matrix.
type FleetModel = fleet.ModelSpec

// NewFleetPool builds an in-process pool with `replicas` rigs per device
// model; aggregated fleet output is byte-identical for any replica count.
func NewFleetPool(deviceModels []string, replicas int) (*FleetPool, error) {
	return fleet.NewLocalPool(deviceModels, replicas)
}

// FleetAggregator is a fleet run's streamed result set; see
// fleet.Aggregator for the report/JSON/checksum renderers.
type FleetAggregator = fleet.Aggregator

// FleetRun sweeps a benchmark matrix across a pool under ctx. The partial
// aggregate survives cancellation: errors.Is(err, ErrCancelled) reports
// an interrupted sweep, ErrNoDevice/ErrExhausted the typed scheduling
// failures.
func FleetRun(ctx context.Context, pool *FleetPool, m FleetMatrix, cfg FleetConfig) (*FleetAggregator, error) {
	return pool.Run(ctx, m, cfg)
}

// FleetModels converts bench-selected corpus models into fleet matrix
// entries.
func FleetModels(models []BenchModel) []FleetModel {
	out := make([]FleetModel, 0, len(models))
	for _, m := range models {
		out = append(out, FleetModel{Name: m.Name, Data: m.Bytes})
	}
	return out
}

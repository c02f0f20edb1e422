// Package fleet is gaugeNN's device-lab orchestrator: it takes a benchmark
// matrix spec — models x device models x runtime backends (x Table 4 usage
// scenarios) — expands it into jobs and dispatches them across a pool of
// benchmark rigs, the way the paper's evaluation (§5-6) sweeps its model
// population over six devices and seven runtimes.
//
// The scheduler keeps one serialized queue per device model, paces
// continuous-inference jobs thermally (cooling the device to a fixed
// stored-heat target before each job, so Figure-9-style throttling is a
// property of the job rather than of queue position), retries transport
// failures on another device of the same model with the failed rig
// excluded, and streams results into an aggregator that renders report
// tables plus a machine-readable JSON results file.
//
// Determinism contract: for a fixed matrix, the aggregated output is
// byte-identical regardless of pool size — every job starts from the same
// device state (heat zero), results are keyed by matrix index, and nothing
// scheduling-dependent (runner identity, wall-clock) reaches the output.
package fleet

import (
	"fmt"
	"sort"
	"time"

	"github.com/gaugenn/gaugenn/internal/bench"
	"github.com/gaugenn/gaugenn/internal/exec"
	"github.com/gaugenn/gaugenn/internal/mlrt"
	"github.com/gaugenn/gaugenn/internal/nn/formats"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
	"github.com/gaugenn/gaugenn/internal/soc"
)

// ModelSpec is one model entry of the matrix: serialised bytes plus an
// optional decoded graph (needed for scenario projections; decoded on
// demand when absent).
type ModelSpec struct {
	Name  string
	Data  []byte
	Graph *graph.Graph
}

// ZooModel builds a matrix entry from a zoo spec, keeping the graph for
// scenario projections.
func ZooModel(spec zoo.Spec) (ModelSpec, error) {
	g, err := zoo.Build(spec)
	if err != nil {
		return ModelSpec{}, err
	}
	data, err := formats.EncodeTFLite(g)
	if err != nil {
		return ModelSpec{}, err
	}
	return ModelSpec{Name: g.Name, Data: data, Graph: g}, nil
}

// graphOrDecode returns the spec's graph, decoding the model bytes when
// the caller supplied only bytes.
func (ms *ModelSpec) graphOrDecode() (*graph.Graph, error) {
	if ms.Graph != nil {
		return ms.Graph, nil
	}
	g, ok, err := formats.DecodeFile(ms.Data)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("fleet: model %s matches no registered format", ms.Name)
	}
	ms.Graph = g
	return g, nil
}

// Matrix is the benchmark matrix spec the scheduler expands: every model
// on every device under every backend, with shared job knobs. Scenarios,
// when present, add Table 4 battery-discharge projections derived from the
// measured per-inference energies (the paper measures once and scales by
// each scenario's inference count).
type Matrix struct {
	Models    []ModelSpec
	Devices   []string
	Backends  []string
	Scenarios []bench.Scenario

	// Job knobs, mirroring bench.Job (zero values take the agent's
	// defaults: 4 threads, 2 warmups, 10 runs).
	Threads      int
	Affinity     int
	Batch        int
	Warmup       int
	Runs         int
	SleepBetween time.Duration

	// Execute switches every job to the measured backend: models run for
	// real through the internal/exec interpreter instead of the simulated
	// device model, and each unit carries an output digest. Expand rejects
	// the whole matrix with errs.ErrUnsupportedOps if any model contains
	// an operator the interpreter cannot execute, so unsupported graphs
	// fail before any device time is spent.
	Execute bool
}

// Unit is one expanded cell of the matrix. Infeasible combinations (a
// backend the device cannot execute) carry a Skip reason instead of a job,
// so the expansion is total and deterministic.
type Unit struct {
	Index   int
	Model   string
	Device  string
	Backend string
	Skip    string
	Job     bench.Job
}

// Expand enumerates the matrix in deterministic order — devices, then
// backends, then models, each in spec order — validating devices and
// backend names and marking device-infeasible combinations as skipped.
func (m *Matrix) Expand() ([]Unit, error) {
	if len(m.Models) == 0 || len(m.Devices) == 0 || len(m.Backends) == 0 {
		return nil, fmt.Errorf("fleet: matrix needs models, devices and backends (have %d/%d/%d)",
			len(m.Models), len(m.Devices), len(m.Backends))
	}
	known := map[string]bool{}
	for _, b := range mlrt.Backends() {
		known[b] = true
	}
	for _, b := range m.Backends {
		if !known[b] {
			return nil, fmt.Errorf("fleet: unknown backend %q (have %v)", b, mlrt.Backends())
		}
	}
	if m.Execute {
		// Executed mode runs every model through the interpreter; validate
		// each graph up front so an unsupported operator is a typed matrix
		// error here, not a per-unit load failure on a device.
		for i := range m.Models {
			g, err := m.Models[i].graphOrDecode()
			if err != nil {
				return nil, err
			}
			if err := exec.Validate(g); err != nil {
				return nil, fmt.Errorf("fleet: model %s cannot run in executed mode: %w", m.Models[i].Name, err)
			}
		}
	}
	// One probe device per model answers feasibility for every cell.
	probes := map[string]*soc.Device{}
	for _, d := range m.Devices {
		if _, ok := probes[d]; ok {
			return nil, fmt.Errorf("fleet: device %s listed twice in matrix", d)
		}
		dev, err := soc.NewDevice(d)
		if err != nil {
			return nil, err
		}
		probes[d] = dev
	}
	var units []Unit
	for _, d := range m.Devices {
		for _, b := range m.Backends {
			skip := ""
			if err := mlrt.Supports(probes[d], b); err != nil {
				skip = err.Error()
			}
			for _, ms := range m.Models {
				u := Unit{
					Index:   len(units),
					Model:   ms.Name,
					Device:  d,
					Backend: b,
					Skip:    skip,
				}
				if skip == "" {
					u.Job = bench.Job{
						ID:           fmt.Sprintf("%04d/%s/%s/%s", u.Index, d, b, ms.Name),
						ModelName:    ms.Name,
						Model:        ms.Data,
						Backend:      b,
						Threads:      m.Threads,
						Affinity:     m.Affinity,
						Batch:        m.Batch,
						Warmup:       m.Warmup,
						Runs:         m.Runs,
						SleepBetween: m.SleepBetween,
						Execute:      m.Execute,
					}
				}
				units = append(units, u)
			}
		}
	}
	return units, nil
}

// modelNames returns the matrix's model labels in spec order.
func (m *Matrix) modelNames() []string {
	out := make([]string, len(m.Models))
	for i, ms := range m.Models {
		out[i] = ms.Name
	}
	return out
}

// scenarioNames returns the matrix's scenario labels in spec order.
func (m *Matrix) scenarioNames() []string {
	out := make([]string, len(m.Scenarios))
	for i, sc := range m.Scenarios {
		out[i] = sc.Name
	}
	return out
}

// FeasibleCells reports how many of the matrix's cells are executable,
// out of the total, for progress displays.
func (m *Matrix) FeasibleCells() (feasible, total int, err error) {
	units, err := m.Expand()
	if err != nil {
		return 0, 0, err
	}
	for _, u := range units {
		if u.Skip == "" {
			feasible++
		}
	}
	return feasible, len(units), nil
}

// sortedCopy returns a sorted copy of xs (aggregation helpers must not
// mutate result slices).
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

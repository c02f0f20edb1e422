package mlrt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"github.com/gaugenn/gaugenn/internal/exec"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/soc"
)

// cpuLayerOverhead is the interpreter's per-op dispatch cost.
const cpuLayerOverhead = 12 * time.Microsecond

// fallbackBoundaryOverhead is paid when execution crosses between a
// delegate and the CPU (tensor handoff + synchronisation).
const fallbackBoundaryOverhead = 150 * time.Microsecond

// cpuOpEfficiency is the fraction of peak SIMD throughput each op class
// achieves on CPU: convolutions map well onto mobile hardware, depthwise
// and memory-shuffling ops poorly (Section 4.7's observations).
var cpuOpEfficiency = map[graph.OpClass]float64{
	graph.ClassConv:       0.75,
	graph.ClassDepthConv:  0.35,
	graph.ClassDense:      0.65,
	graph.ClassActivation: 0.25,
	graph.ClassPooling:    0.30,
	graph.ClassMath:       0.30,
	graph.ClassQuant:      0.40,
	graph.ClassResize:     0.30,
	graph.ClassSlice:      0.25,
	graph.ClassOther:      0.30,
}

// accelOpEfficiency: accelerators favour big regular GEMMs even more.
var accelOpEfficiency = map[graph.OpClass]float64{
	graph.ClassConv:       0.80,
	graph.ClassDepthConv:  0.40,
	graph.ClassDense:      0.70,
	graph.ClassActivation: 0.35,
	graph.ClassPooling:    0.35,
	graph.ClassMath:       0.35,
	graph.ClassQuant:      0.60,
	graph.ClassResize:     0.40,
	graph.ClassSlice:      0.30,
	graph.ClassOther:      0.30,
}

// planned is one layer's placement and cost basis.
type planned struct {
	work     soc.Work
	fallback bool // runs on CPU despite a non-CPU/delegate backend
}

// Session is a loaded model ready for repeated inference. The first
// inference is cold (cache/JIT warmup); the harness discards warmup runs
// "to remove cold cache outliers".
type Session struct {
	Engine  *Engine
	Graph   *graph.Graph
	Profile *graph.Profile
	Opts    Options

	plan        []planned
	fallbackOps int
	flops       int64
	peakMem     int64
	warm        bool

	// prog/inst are set when Opts.Execute selected the measured backend:
	// the compiled interpreter program and this session's run state.
	prog *exec.Program
	inst *exec.Instance
}

// Load prepares a session: profiles the graph, checks memory fit, places
// each layer on the backend or the CPU fallback and precomputes costs.
func (e *Engine) Load(g *graph.Graph, opts Options) (*Session, error) {
	opts = opts.withDefaults()
	prof, err := graph.ProfileGraph(g)
	if err != nil {
		return nil, fmt.Errorf("mlrt: %w", err)
	}
	// Memory fit: weights + batched activations must fit in RAM
	// (Section 6.2 anticipates OOM at scale for low-memory devices).
	need := prof.WeightBytes + prof.ActivationBytes*int64(opts.Batch)
	ram := int64(e.Device.RAMGB) * 1 << 30
	if ram > 0 && need > ram/2 {
		return nil, fmt.Errorf("mlrt: model needs %d MiB with batch %d, exceeding half of %s's %d GiB RAM",
			need>>20, opts.Batch, e.Device.Model, e.Device.RAMGB)
	}
	s := &Session{Engine: e, Graph: g, Profile: prof, Opts: opts}
	s.peakMem = need
	b := e.Backend
	driver := 1.0
	if b.UsesNNAPIDriver {
		driver = e.Device.SoC.NNAPIDriverQuality
	}
	batch := float64(opts.Batch)
	// Batching improves SIMD utilisation slightly — "throughput scales
	// almost linearly" with a small superlinear bonus until memory binds.
	batchEff := 1 + 0.05*math.Log2(batch)
	// SNPE quantises fp32 models internally for the DSP ("handling
	// quantisation in the proper precision internally"); models already
	// carrying int8 weights (including A16W8 hybrids) keep their declared
	// tensor sizes, which the profile has already accounted for.
	alreadyQuant := graph.CollectWeightStats(g).Int8WeightFraction() > 0.5
	quantised := b.Target == TargetDSP && !alreadyQuant
	for _, lp := range prof.Layers {
		fallback := b.Unsupported[lp.Op]
		eff := cpuOpEfficiency[lp.Class]
		if b.Target != TargetCPU && !fallback {
			eff = accelOpEfficiency[lp.Class]
		}
		speed := eff * batchEff
		if !fallback {
			speed *= b.SpeedFactor * driver
		}
		if speed > 1.2 {
			speed = 1.2
		}
		flops := int64(float64(lp.FLOPs) * batch)
		bytes := int64(float64(lp.InputBytes+lp.OutputBytes)*batch) + lp.WeightBytes
		if quantised && !fallback {
			bytes = bytes/4 + 1 // int8 tensors move a quarter of the fp32 bytes
		}
		overhead := cpuLayerOverhead
		if b.Target != TargetCPU && !fallback {
			overhead = 0 // ExecuteAccel applies the block's dispatch cost
		}
		if b.ExtraLayerOverhead > 0 && !fallback {
			overhead += b.ExtraLayerOverhead
		}
		if fallback {
			overhead += fallbackBoundaryOverhead
		}
		par := 0
		if lp.Op == graph.OpLSTM || lp.Op == graph.OpGRU {
			par = 1 // recurrent steps serialise
		}
		s.plan = append(s.plan, planned{
			work: soc.Work{
				FLOPs:       flops,
				Bytes:       bytes,
				Overhead:    overhead,
				Efficiency:  speed,
				Parallelism: par,
			},
			fallback: fallback,
		})
		if fallback {
			s.fallbackOps++
		}
		s.flops += flops
	}
	if opts.Execute {
		// Measured backend: compile the graph for the in-process
		// interpreter now so unsupported operators surface as a typed
		// errs.ErrUnsupportedOps at load, not a mid-run failure.
		prog, err := exec.Compile(g)
		if err != nil {
			return nil, err
		}
		s.prog = prog
		s.inst = prog.NewInstance()
	}
	return s, nil
}

// inferExecuted runs Opts.Batch real inferences through the interpreter.
// Latency is host wall-clock time; the device's virtual clock advances by
// the measured duration so scheduling and thermal bookkeeping downstream
// stay coherent. Energy is an estimate — measured time times the SoC's
// base power plus one big core (the interpreter is single-threaded per
// instance), scaled by the backend's power factor; docs/exec.md spells
// out this contract. Batch seeds are fixed (0..Batch-1) so the output
// digest is a pure function of (model, batch): byte-identical across
// repeats, workers and pool sizes.
func (s *Session) inferExecuted() (Result, error) {
	dev := s.Engine.Device
	var agg Result
	agg.FLOPs = s.flops
	agg.PeakMemBytes = s.Profile.WeightBytes + s.prog.ArenaBytes()
	h := sha256.New()
	var total time.Duration
	for i := 0; i < s.Opts.Batch; i++ {
		total += s.inst.Run(uint64(i))
		d := s.inst.Digest()
		h.Write(d[:])
	}
	s.warm = true
	agg.Latency = total
	agg.OutputDigest = hex.EncodeToString(h.Sum(nil))
	watts := (dev.SoC.BasePowerWatts + dev.SoC.Islands[0].Type.ActiveWatts) * s.Engine.Backend.PowerFactor
	agg.EnergyJ = total.Seconds() * watts
	agg.AvgWatts = watts
	agg.CPUUtil = 1 // one interpreter thread saturating one core
	dev.Clock.Advance(total)
	return agg, nil
}

// Infer executes one (batched) inference, advancing the device's virtual
// clock and heating it. sink, when non-nil, receives rail power activity.
func (s *Session) Infer(sink soc.PowerSink) (Result, error) {
	if s.prog != nil {
		return s.inferExecuted()
	}
	dev := s.Engine.Device
	cfg := soc.CPUConfig{Threads: s.Opts.Threads, Affinity: s.Opts.Affinity}
	var agg Result
	agg.FLOPs = s.flops
	agg.FallbackOps = s.fallbackOps
	agg.PeakMemBytes = s.peakMem

	coldFactor := 1.0
	if !s.warm {
		coldFactor = 2.2 // cold caches, uninitialised delegates
		s.warm = true
	}

	// Execute contiguous segments per placement to model partition
	// crossings faithfully.
	i := 0
	for i < len(s.plan) {
		j := i
		for j < len(s.plan) && s.plan[j].fallback == s.plan[i].fallback {
			j++
		}
		seg := make([]soc.Work, 0, j-i)
		for _, p := range s.plan[i:j] {
			w := p.work
			if coldFactor > 1 {
				w.Overhead = time.Duration(float64(w.Overhead) * coldFactor)
				w.Efficiency /= coldFactor
			}
			seg = append(seg, w)
		}
		var st soc.RunStats
		var err error
		if s.plan[i].fallback || s.Engine.Backend.Target == TargetCPU {
			st, err = dev.ExecuteCPU(cfg, seg, sink)
		} else {
			acc := dev.SoC.GPU
			if s.Engine.Backend.Target == TargetDSP {
				acc = dev.SoC.DSP
			}
			st, err = dev.ExecuteAccel(acc, seg, sink)
		}
		if err != nil {
			return agg, err
		}
		agg.Latency += st.Latency
		agg.EnergyJ += st.EnergyJ * s.Engine.Backend.PowerFactor
		agg.Throttled = agg.Throttled || st.Throttled
		i = j
	}
	if agg.Latency > 0 {
		agg.AvgWatts = agg.EnergyJ / agg.Latency.Seconds()
		// Compute-bound time approximated from the roofline: overheads and
		// memory stalls are the remainder of each layer's latency.
		var computeNS float64
		for _, p := range s.plan {
			gf := 10.0 // nominal; relative utilisation only needs a shared basis
			computeNS += float64(p.work.FLOPs) / gf
		}
		util := computeNS / float64(agg.Latency)
		if util > 1 {
			util = 1
		}
		agg.CPUUtil = util
	}
	return agg, nil
}

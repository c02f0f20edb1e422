// Package exec is gaugeNN's in-process inference engine: a topological-order
// interpreter over the internal/nn/graph IR with reference fp32 kernels for
// the operator vocabulary the corpus actually uses, an int8 quantized path
// (exact integer MAC over kernels Compile packs or widens once per
// program; weight-only int8 kernels are read in place), a
// liveness-planned tensor arena (buffers reused across layers, zero
// allocations per op in steady state) and a worker-pool batch executor with
// deterministic result ordering (Pool).
//
// Where internal/mlrt's simulated sessions advance a virtual device clock,
// an executed session (mlrt.Options.Execute) runs real arithmetic through
// this interpreter and reports measured wall-clock latency — upgrading the
// fleet/Table-4 numbers from simulation to measurement and enabling the
// per-op roofline reports the paper only estimates. See docs/exec.md for
// the kernel contracts, the quantization scheme and the arena lifetime
// rules.
package exec

import (
	"fmt"
	"math"
	"sort"

	"github.com/gaugenn/gaugenn/internal/errs"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
)

// DefaultWeightScale is the per-tensor weight scale assumed for int8 weight
// tensors when the graph records none. Weight-only quantized zoo models
// store no scale anywhere; post-training-quantized ones carry it on their
// quantize layers, which Compile prefers. 0.01 is the zoo's quantisation
// step (zoo.QuantizeModel(g, 0.01)).
const DefaultWeightScale = 0.01

// tensorInfo is one entry of the program's tensor table: a graph edge bound
// to an arena slot.
type tensorInfo struct {
	name  string
	dtype graph.DType
	shape graph.Shape
	elems int
	// isFloat selects the float32 arena; quantized tensors (int8/uint8/
	// int16) live in the byte arena at their storage width.
	isFloat bool
	// off/size locate the buffer inside its arena: float32 elements for
	// float tensors, bytes for quantized ones.
	off, size int
	// scale/zeroPoint are the static quantization parameters when the
	// producer declares them (quantize layers); 0 scale means the producer
	// assigns them dynamically at run time.
	scale     float64
	zeroPoint int32
	isInput   bool
	isOutput  bool
}

// step is one compiled layer: resolved tensor ids, weights decoded (fp32),
// borrowed or copied into a kernel's layout (int8), and the
// hyperparameters kernels need.
type step struct {
	name  string
	op    graph.OpType
	class graph.OpClass
	fused graph.OpType
	in    []int
	out   int
	attrs graph.Attrs

	// Weight views. Float32/float16 weights are decoded once at compile
	// time into wFloat/bFloat. The heavy kernel tensor of int8
	// conv/depthwise/dense layers stays as the graph's raw bytes in wRaw,
	// which the W8 loops index directly. A layer with int8/uint8
	// activations (the Q8 loops) also gets a copy of its kernel made once,
	// at 4 bytes per weight: conv2d and dense pack it two output channels
	// per int64 (wPacked, see packQ8), depthwise widens it to float32
	// integers (wWide, see dwConvQ8). Small secondary tensors (bias, γ/β,
	// PRelu α) are widened to fp32 at compile whatever their dtype.
	wFloat  []float32
	bFloat  []float32
	wRaw    []byte
	wPacked []int64
	wWide   []float32
	wScale  float64
}

// Program is a compiled, immutable execution plan shared by any number of
// Instances (one per worker). It owns the decoded fp32 weights, the Q8
// kernel copies and the arena layout; all mutable run state lives in the
// Instance.
type Program struct {
	Graph *Graphless

	steps   []step
	tensors []tensorInfo
	inputs  []int
	outputs []int

	floatArena int // float32 elements
	byteArena  int // bytes
	scratch    int // float32 elements

	// est aggregates the structural profile per Figure-6 class — the
	// estimated side of the roofline report.
	estFLOPs [numClasses]int64
	estBytes [numClasses]int64
}

// Graphless carries the model identity a Program keeps after compilation
// (the graph itself is not retained — weights were decoded or borrowed into
// steps, everything else into the tensor table).
type Graphless struct {
	Name   string
	Layers int
	Params int64
}

const numClasses = int(graph.ClassSlice) + 1

// maxPlanBytes is the most memory Compile lets one graph make the
// interpreter allocate at once: each tensor, each synthesized kernel, the
// float arena, the byte arena and the float scratch must each fit in
// 1 GiB, several hundred times what the largest zoo model plans (the
// segmentation models' 1490944-value float arena, 6 MB). Shapes come from
// graphs decoded from APKs in the wild and may declare any size; Compile
// checks every size against this ceiling before it allocates, and refuses
// a graph past it with an error instead of letting make exhaust memory or
// an element count wrap.
const maxPlanBytes = 1 << 30

// planValues multiplies out a count of values in float64, which cannot
// wrap, and reports whether that many values of width bytes fit in
// maxPlanBytes. An int product of the same factors is then exact.
func planValues(width int, factors ...int) bool {
	n := float64(width)
	for _, f := range factors {
		n *= float64(f)
	}
	return math.Abs(n) <= maxPlanBytes
}

// Validate reports whether the interpreter can execute every layer of g,
// returning a *errs.UnsupportedOpsError (matching errs.ErrUnsupportedOps)
// listing the offending operators otherwise. It is the cheap up-front gate
// fleet matrix expansion and the CLIs use to reject executed mode before
// any job is dispatched.
func Validate(g *graph.Graph) error {
	unsupported := map[string]bool{}
	for i := range g.Layers {
		l := &g.Layers[i]
		if reason := unsupportedReason(l); reason != "" {
			unsupported[reason] = true
		}
	}
	if len(unsupported) == 0 {
		return nil
	}
	ops := make([]string, 0, len(unsupported))
	for op := range unsupported {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	return &errs.UnsupportedOpsError{Model: g.Name, Ops: ops}
}

// unsupportedReason returns "" when the layer is executable, or the
// operator name (with a bracketed detail for unsupported configurations of
// a supported operator) otherwise.
func unsupportedReason(l *graph.Layer) string {
	switch l.Op {
	case graph.OpLSTM, graph.OpGRU, graph.OpEmbedding:
		// Recurrent/lookup ops are outside the corpus' executable
		// vocabulary (the same set most delegate backends fall back on).
		return l.Op.String()
	case graph.OpConv2D:
		if l.Attrs.Groups > 1 {
			return "conv2d[groups>1]"
		}
	case graph.OpInvalid:
		return "invalid"
	}
	for _, w := range l.Weights {
		switch w.DType {
		case graph.Float32, graph.Float16, graph.Int8:
		default:
			return fmt.Sprintf("%s[%s-weights]", l.Op, w.DType)
		}
	}
	return ""
}

// supportedActivation reports whether the interpreter can store a tensor of
// this element type.
func supportedActivation(dt graph.DType) bool {
	switch dt {
	case graph.Float32, graph.Int8, graph.UInt8, graph.Int16:
		return true
	}
	return false
}

// Compile validates g, infers every tensor shape, plans the arena and
// resolves weights into an executable Program. Graphs with operators
// outside the kernel vocabulary fail with *errs.UnsupportedOpsError.
func Compile(g *graph.Graph) (*Program, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	if err := Validate(g); err != nil {
		metRejected.Inc()
		return nil, err
	}
	env, err := g.InferShapes()
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	prof, err := graph.ProfileGraph(g)
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}

	p := &Program{Graph: &Graphless{Name: g.Name, Layers: len(g.Layers), Params: g.ParamCount()}}
	id := map[string]int{}
	addTensor := func(t graph.Tensor) (int, error) {
		if !supportedActivation(t.DType) {
			return 0, &errs.UnsupportedOpsError{Model: g.Name, Ops: []string{fmt.Sprintf("tensor[%s]", t.DType)}}
		}
		var dims []int
		for _, d := range t.Shape {
			dims = append(dims, max(d, 1)) // as graph.Shape.Elements counts them
		}
		if !planValues(t.DType.Size(), dims...) {
			return 0, fmt.Errorf("exec: tensor %q of shape %v is larger than %d bytes", t.Name, t.Shape, maxPlanBytes)
		}
		ti := tensorInfo{
			name:    t.Name,
			dtype:   t.DType,
			shape:   t.Shape.Clone(),
			elems:   int(t.Shape.Elements()),
			isFloat: t.DType == graph.Float32,
		}
		if ti.isFloat {
			ti.size = ti.elems
		} else {
			ti.size = ti.elems * t.DType.Size()
		}
		p.tensors = append(p.tensors, ti)
		id[t.Name] = len(p.tensors) - 1
		return len(p.tensors) - 1, nil
	}
	for _, in := range g.Inputs {
		tid, err := addTensor(env[in.Name])
		if err != nil {
			return nil, err
		}
		p.tensors[tid].isInput = true
		p.inputs = append(p.inputs, tid)
	}

	// The graph-level weight scale fallback: a post-training-quantized
	// model records its step on the quantize layers; weight-only models
	// record nothing and take DefaultWeightScale.
	weightScale := DefaultWeightScale
	for i := range g.Layers {
		if g.Layers[i].Op == graph.OpQuantize && g.Layers[i].Attrs.Scale > 0 {
			weightScale = g.Layers[i].Attrs.Scale
			break
		}
	}

	for i := range g.Layers {
		l := &g.Layers[i]
		st := step{
			name:  l.Name,
			op:    l.Op,
			class: l.Op.Class(),
			fused: l.Attrs.Fused,
			attrs: l.Attrs,
		}
		for _, in := range l.Inputs {
			st.in = append(st.in, id[in])
		}
		for _, out := range l.Outputs {
			tid, err := addTensor(env[out])
			if err != nil {
				return nil, err
			}
			st.out = tid
		}
		if err := setQuantParams(&p.tensors[st.out], l); err != nil {
			return nil, fmt.Errorf("exec: layer %q: %w", l.Name, err)
		}
		var inShape graph.Shape
		if len(st.in) > 0 {
			inShape = p.tensors[st.in[0]].shape
		}
		if err := resolveWeights(&st, l, weightScale, inShape); err != nil {
			return nil, fmt.Errorf("exec: layer %q: %w", l.Name, err)
		}
		if err := checkWeightSizes(&st, &p.tensors[st.in[0]], &p.tensors[st.out]); err != nil {
			return nil, fmt.Errorf("exec: layer %q: %w", l.Name, err)
		}
		if err := checkKernelShapes(&st, &p.tensors[st.in[0]], &p.tensors[st.out]); err != nil {
			return nil, fmt.Errorf("exec: layer %q: %w", l.Name, err)
		}
		if dt := p.tensors[st.in[0]].dtype; st.wRaw != nil && (dt == graph.Int8 || dt == graph.UInt8) {
			if st.op == graph.OpDepthwiseConv2D {
				st.wWide = decodeInt8(st.wRaw, 1)
			} else {
				st.wPacked = packQ8(st.wRaw, lastDimOf(p.tensors[st.out].shape))
			}
		}
		p.steps = append(p.steps, st)
	}
	for _, out := range g.Outputs {
		tid, ok := id[out.Name]
		if !ok {
			return nil, fmt.Errorf("exec: output %q never produced", out.Name)
		}
		p.tensors[tid].isOutput = true
		p.outputs = append(p.outputs, tid)
	}

	p.planArena()
	p.planScratch()
	for _, b := range []struct {
		name  string
		bytes int
	}{{"float arena", p.floatArena * 4}, {"byte arena", p.byteArena}, {"scratch", p.scratch * 4}} {
		if b.bytes > maxPlanBytes {
			return nil, fmt.Errorf("exec: %s needs a %d-byte %s, more than %d bytes", g.Name, b.bytes, b.name, maxPlanBytes)
		}
	}

	for _, lp := range prof.Layers {
		c := int(lp.Class)
		if c < numClasses {
			p.estFLOPs[c] += lp.FLOPs
			p.estBytes[c] += lp.InputBytes + lp.OutputBytes + lp.WeightBytes
		}
	}
	metCompiles.Inc()
	return p, nil
}

// setQuantParams checks a quantize or dequantize layer's output dtype and
// records a quantize layer's static parameters: it declares its output's
// scale and zero point; everything else inherits them dynamically. A
// quantize layer must store a quantized dtype and a dequantize layer
// float32, and a static zero point must be a code its dtype can store,
// which also bounds every zero-point-corrected Q8 input (see qPass).
func setQuantParams(out *tensorInfo, l *graph.Layer) error {
	switch {
	case l.Op == graph.OpQuantize && out.isFloat:
		return fmt.Errorf("quantize output is %s, want int8, uint8 or int16", out.dtype)
	case l.Op == graph.OpDequantize && !out.isFloat:
		return fmt.Errorf("dequantize output is %s, want float32", out.dtype)
	case l.Op != graph.OpQuantize || l.Attrs.Scale <= 0:
		return nil
	}
	if lo, hi := quantRange(out.dtype); float64(l.Attrs.ZeroPoint) < lo || float64(l.Attrs.ZeroPoint) > hi {
		return fmt.Errorf("zero point %d is outside the %s range", l.Attrs.ZeroPoint, out.dtype)
	}
	out.scale, out.zeroPoint = l.Attrs.Scale, int32(l.Attrs.ZeroPoint)
	return nil
}

// resolveWeights turns a layer's weight list into the step's kernel views.
// Layer conventions follow the builder: conv/dense carry [kernel, bias],
// batch-norm [gamma, beta], prelu an optional per-channel alpha. Float
// weights (fp32 bit-cast, fp16 widened) decode once; the int8 kernel
// tensor of MAC layers is borrowed raw (Compile then copies it for the Q8
// loops); graphs whose weights were stripped (DetachWeights before CAS
// storage) get deterministic synthetic kernels so any stored model stays
// runnable.
func resolveWeights(st *step, l *graph.Layer, weightScale float64, inShape graph.Shape) error {
	st.wScale = weightScale
	if l.Attrs.Scale > 0 && l.Op != graph.OpQuantize && l.Op != graph.OpDequantize {
		st.wScale = l.Attrs.Scale
	}
	macOp := l.Op == graph.OpConv2D || l.Op == graph.OpDepthwiseConv2D || l.Op == graph.OpDense
	for wi := range l.Weights {
		w := &l.Weights[wi]
		if len(w.Data) == 0 {
			continue
		}
		var f []float32
		var raw []byte
		switch w.DType {
		case graph.Float32:
			f = decodeFloat32(w.Data)
		case graph.Float16:
			f = decodeFloat16(w.Data)
		case graph.Int8:
			if wi == 0 && macOp {
				raw = w.Data // borrowed, not copied
			} else {
				f = decodeInt8(w.Data, st.wScale)
			}
		default:
			return fmt.Errorf("weight %q has unsupported dtype %s", w.Name, w.DType)
		}
		if wi == 0 {
			st.wFloat, st.wRaw = f, raw
		} else if st.bFloat == nil {
			st.bFloat = f
		}
	}
	if st.wFloat == nil && st.wRaw == nil {
		var err error
		if st.wFloat, err = syntheticKernel(l, inShape); err != nil {
			return err
		}
	}
	return nil
}

// checkWeightSizes rejects a conv, depthwise, transpose-conv or dense
// layer whose kernel or bias does not hold exactly the values the layer's
// dimensions index. graph.Validate checks each weight only against its own
// declared shape, so without this a graph declaring a short kernel would
// compile and then index past its end in Run. The dimensions are checked
// with planValues before they are multiplied in int, so a product that
// would wrap to the kernel's length is refused too.
func checkWeightSizes(st *step, in, out *tensorInfo) error {
	a := st.attrs
	outC := lastDimOf(out.shape)
	var dims []int
	switch st.op {
	case graph.OpConv2D:
		dims = []int{a.KernelH, a.KernelW, lastDimOf(in.shape), outC}
	case graph.OpDepthwiseConv2D:
		dims = []int{a.KernelH, a.KernelW, outC} // [kh, kw, C, mult], C·mult = outC
	case graph.OpTransposeConv2D:
		dims = []int{a.KernelH, a.KernelW, outC, lastDimOf(in.shape)}
	case graph.OpDense:
		_, inF, units := denseDims(in, out)
		dims = []int{inF, units}
	default:
		return nil
	}
	n := len(st.wFloat) + len(st.wRaw)
	// 4 bytes a value: the interpreter holds every kernel as float32, or
	// as int8 packed two to an int64 or widened to float32.
	if !planValues(4, dims...) {
		return fmt.Errorf("kernel holds %d values, and the layer's dimensions need more than %d bytes", n, maxPlanBytes)
	}
	want := 1
	for _, d := range dims {
		want *= d
	}
	if n != want {
		return fmt.Errorf("kernel holds %d values, the layer needs %d", n, want)
	}
	if st.bFloat != nil && len(st.bFloat) != outC {
		return fmt.Errorf("bias holds %d values, the layer has %d output channels", len(st.bFloat), outC)
	}
	return nil
}

// checkKernelShapes rejects a layer that shape inference accepts but whose
// kernel would index outside its buffers: a pad by a negative width, a
// slice or mean over a rank outside 1 to maxKernelRank, and a resize from
// an input without rows or columns (shape inference has checked that a
// resize input is rank 4).
func checkKernelShapes(st *step, in, out *tensorInfo) error {
	switch st.op {
	case graph.OpPad:
		if st.attrs.PadH < 0 || st.attrs.PadW < 0 {
			return fmt.Errorf("negative padding %d×%d", st.attrs.PadH, st.attrs.PadW)
		}
	case graph.OpSlice, graph.OpStridedSlice, graph.OpMean:
		if r := len(in.shape); r == 0 || r > maxKernelRank {
			return fmt.Errorf("input of rank %d, the kernel takes 1 to %d", r, maxKernelRank)
		}
	case graph.OpResizeBilinear, graph.OpResizeNearest:
		if in.shape[1] <= 0 || in.shape[2] <= 0 {
			return fmt.Errorf("resizes a %v input", in.shape)
		}
	}
	return nil
}

// syntheticKernel builds a deterministic stand-in kernel for MAC layers
// whose weights were detached before storage. Values are a fixed function
// of the layer name and index, in [-0.1, 0.1), so latency and digests stay
// stable run to run and machine to machine. A kernel larger than
// maxPlanBytes is an error.
func syntheticKernel(l *graph.Layer, inShape graph.Shape) ([]float32, error) {
	var dims []int
	a := l.Attrs
	switch l.Op {
	case graph.OpConv2D, graph.OpTransposeConv2D:
		if len(inShape) == 4 {
			dims = []int{a.KernelH, a.KernelW, inShape[3], a.Filters}
		}
	case graph.OpDepthwiseConv2D:
		if len(inShape) == 4 {
			dims = []int{a.KernelH, a.KernelW, inShape[3], max(a.DepthMult, 1)}
		}
	case graph.OpDense:
		if len(inShape) >= 1 {
			batch := max(inShape[0], 1)
			dims = []int{int(inShape.Elements()) / batch, a.Units}
		}
	}
	if !planValues(4, dims...) {
		return nil, fmt.Errorf("synthesized %v kernel is larger than %d bytes", dims, maxPlanBytes)
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	if dims == nil || n <= 0 {
		return nil, nil
	}
	seed := uint64(0xcbf29ce484222325)
	for _, c := range []byte(l.Name) {
		seed = (seed ^ uint64(c)) * 0x100000001b3
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = (float32(splitmix64(&seed)>>40)/float32(1<<24) - 0.5) * 0.2
	}
	return out, nil
}

// planArena assigns every tensor an offset in its arena using first-fit
// free-list reuse over def/last-use liveness: a buffer is released the
// moment its final consumer finishes, so deep sequential models run in a
// working set of roughly two layer footprints. Graph inputs and outputs
// are pinned live for the whole run.
func (p *Program) planArena() {
	lastUse := make([]int, len(p.tensors))
	for i := range lastUse {
		lastUse[i] = -1
	}
	for si := range p.steps {
		for _, tid := range p.steps[si].in {
			lastUse[tid] = si
		}
	}
	pinned := len(p.steps) // never released
	for i, t := range p.tensors {
		if t.isInput || t.isOutput {
			lastUse[i] = pinned
		}
	}

	var floatAlloc, byteAlloc arenaAllocator
	alloc := func(tid int) {
		t := &p.tensors[tid]
		if t.isFloat {
			t.off = floatAlloc.alloc(t.size)
		} else {
			t.off = byteAlloc.alloc(t.size)
		}
	}
	release := func(tid int) {
		t := &p.tensors[tid]
		if t.isFloat {
			floatAlloc.release(t.off, t.size)
		} else {
			byteAlloc.release(t.off, t.size)
		}
	}

	for _, tid := range p.inputs {
		alloc(tid)
	}
	for si := range p.steps {
		alloc(p.steps[si].out)
		for _, tid := range p.steps[si].in {
			if lastUse[tid] == si {
				release(tid)
			}
		}
		if lastUse[p.steps[si].out] < si {
			// Produced but never consumed and not an output: dead store,
			// release immediately so it costs one layer's footprint at most.
			release(p.steps[si].out)
		}
	}
	p.floatArena = floatAlloc.high
	p.byteArena = byteAlloc.high
}

// planScratch sizes the shared float32 scratch: the widest layer's
// dequantized inputs plus output, which covers both the generic
// quantized-op path (dequantize -> fp32 kernel -> requantize) and the
// integer-MAC epilogue that stages real-valued outputs before dynamic
// requantization.
func (p *Program) planScratch() {
	for si := range p.steps {
		need := p.tensors[p.steps[si].out].elems
		for _, tid := range p.steps[si].in {
			need += p.tensors[tid].elems
		}
		if need > p.scratch {
			p.scratch = need
		}
	}
}

// arenaAllocator is the compile-time first-fit planner with free-block
// coalescing. It runs only during Compile; instances just slice the two
// flat arrays it sized.
type arenaAllocator struct {
	free []arenaBlock // sorted by offset
	high int
}

type arenaBlock struct{ off, size int }

func (a *arenaAllocator) alloc(size int) int {
	if size == 0 {
		return 0
	}
	for i, b := range a.free {
		if b.size >= size {
			off := b.off
			if b.size == size {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i] = arenaBlock{off: b.off + size, size: b.size - size}
			}
			return off
		}
	}
	off := a.high
	a.high += size
	return off
}

func (a *arenaAllocator) release(off, size int) {
	if size == 0 {
		return
	}
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].off >= off })
	a.free = append(a.free, arenaBlock{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = arenaBlock{off: off, size: size}
	// Coalesce with neighbours so fragmentation cannot grow the arena
	// beyond the true peak working set.
	if i+1 < len(a.free) && a.free[i].off+a.free[i].size == a.free[i+1].off {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].off+a.free[i-1].size == a.free[i].off {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// ArenaBytes reports the planned activation working set (both arenas plus
// scratch) in bytes — the executed-mode PeakMemBytes contribution.
func (p *Program) ArenaBytes() int64 {
	return int64(p.floatArena)*4 + int64(p.byteArena) + int64(p.scratch)*4
}

// Outputs lists the model's output tensor names in declaration order.
func (p *Program) Outputs() []string {
	out := make([]string, len(p.outputs))
	for i, tid := range p.outputs {
		out[i] = p.tensors[tid].name
	}
	return out
}

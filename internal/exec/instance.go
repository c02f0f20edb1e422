package exec

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"time"

	"github.com/gaugenn/gaugenn/internal/nn/graph"
)

// Instance is one worker's mutable run state over a shared Program: the two
// activation arenas, the float scratch, the per-tensor dynamic quantization
// parameters and the timing accumulators. Everything is allocated by
// NewInstance; Run and Digest allocate nothing, which TestAllocsPerRun
// gates. An Instance is not safe for concurrent use — Pool gives each
// worker its own.
type Instance struct {
	prog *Program

	floatArena []float32
	byteArena  []byte
	scratch    []float32

	// Dynamic per-tensor quantization parameters, reset to the graph's
	// static values at the top of every Run.
	scales []float64
	zps    []int32

	// Reused per-step staging (capacity fixed at the widest layer).
	views     [][]float32
	shapesBuf []graph.Shape
	digestBuf []byte

	opsByClass [numClasses]int64
	nsByClass  [numClasses]int64
	runs       int64
	totalNS    int64
}

// NewInstance allocates run state for the program: the only allocations an
// inference ever performs happen here.
func (p *Program) NewInstance() *Instance {
	maxIn := 1
	for si := range p.steps {
		if n := len(p.steps[si].in); n > maxIn {
			maxIn = n
		}
	}
	digestLen := 0
	for _, tid := range p.outputs {
		t := &p.tensors[tid]
		if t.isFloat {
			digestLen += t.elems * 4
		} else {
			digestLen += t.size
		}
	}
	return &Instance{
		prog:       p,
		floatArena: make([]float32, p.floatArena),
		byteArena:  make([]byte, p.byteArena),
		scratch:    make([]float32, p.scratch),
		scales:     make([]float64, len(p.tensors)),
		zps:        make([]int32, len(p.tensors)),
		views:      make([][]float32, 0, maxIn),
		shapesBuf:  make([]graph.Shape, 0, maxIn),
		digestBuf:  make([]byte, 0, digestLen),
	}
}

// Run executes one inference over deterministic synthetic inputs derived
// from seed, timing every operator. The same (program, seed) pair produces
// byte-identical outputs on every run, worker and pool size.
func (in *Instance) Run(seed uint64) time.Duration {
	p := in.prog
	for i := range p.tensors {
		in.scales[i] = p.tensors[i].scale
		in.zps[i] = p.tensors[i].zeroPoint
	}
	for _, tid := range p.inputs {
		in.fillInput(tid, seed)
	}
	start := time.Now()
	for si := range p.steps {
		st := &p.steps[si]
		t0 := time.Now()
		in.runStep(st)
		d := time.Since(t0)
		in.opsByClass[st.class]++
		in.nsByClass[st.class] += int64(d)
		metOpsTotal[st.class].Inc()
		metOpSeconds[st.class].Observe(d.Seconds())
	}
	total := time.Since(start)
	in.runs++
	in.totalNS += int64(total)
	metRuns.Inc()
	metRunSeconds.Observe(total.Seconds())
	return total
}

// Digest hashes every output tensor's bytes (fp32 as little-endian bit
// patterns, quantized tensors raw) — the determinism witness carried
// through bench results into fleet aggregation.
func (in *Instance) Digest() [32]byte {
	buf := in.digestBuf[:0]
	for _, tid := range in.prog.outputs {
		t := &in.prog.tensors[tid]
		if t.isFloat {
			for _, v := range in.floatArena[t.off : t.off+t.size] {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
			}
		} else {
			buf = append(buf, in.byteArena[t.off:t.off+t.size]...)
		}
	}
	return sha256.Sum256(buf)
}

// Output returns a real-valued copy of a named output tensor (dequantized
// if needed) — a test and reporting convenience, not a hot path.
func (in *Instance) Output(name string) []float32 {
	for _, tid := range in.prog.outputs {
		t := &in.prog.tensors[tid]
		if t.name != name {
			continue
		}
		out := make([]float32, t.elems)
		if t.isFloat {
			copy(out, in.floatArena[t.off:t.off+t.size])
		} else {
			dequantize(out, in.byteArena[t.off:t.off+t.size], t.dtype, in.scales[tid], in.zps[tid])
		}
		return out
	}
	return nil
}

// fillInput writes deterministic synthetic data: floats uniform in [-1, 1),
// quantized tensors uniform over their byte range with a fixed unit scale.
func (in *Instance) fillInput(tid int, seed uint64) {
	t := &in.prog.tensors[tid]
	s := seed ^ (uint64(tid)+1)*0x9e3779b97f4a7c15
	if t.isFloat {
		buf := in.floatArena[t.off : t.off+t.size]
		for i := range buf {
			buf[i] = float32(splitmix64(&s)>>40)/float32(1<<23) - 1
		}
		return
	}
	buf := in.byteArena[t.off : t.off+t.size]
	for i := range buf {
		buf[i] = byte(splitmix64(&s) >> 56)
	}
	switch t.dtype {
	case graph.UInt8:
		in.scales[tid], in.zps[tid] = 1.0/127, 128
	case graph.Int16:
		in.scales[tid], in.zps[tid] = 1.0/32767, 0
	default:
		in.scales[tid], in.zps[tid] = 1.0/127, 0
	}
}

func (in *Instance) f32(tid int) []float32 {
	t := &in.prog.tensors[tid]
	return in.floatArena[t.off : t.off+t.size]
}

func (in *Instance) raw(tid int) []byte {
	t := &in.prog.tensors[tid]
	return in.byteArena[t.off : t.off+t.size]
}

// floatViewAt returns a real-valued view of a tensor: its arena buffer when
// it is fp32, otherwise a dequantized copy staged in scratch at *off.
func (in *Instance) floatViewAt(tid int, off *int) []float32 {
	t := &in.prog.tensors[tid]
	if t.isFloat {
		return in.floatArena[t.off : t.off+t.size]
	}
	seg := in.scratch[*off : *off+t.elems]
	*off += t.elems
	dequantize(seg, in.byteArena[t.off:t.off+t.size], t.dtype, in.scales[tid], in.zps[tid])
	return seg
}

// storeQuant dynamic-range requantizes a real-valued result whose largest
// |v| is amax into a quantized tensor's byte buffer: scale = amax/limit,
// zero-point 0 (128 for uint8).
func (in *Instance) storeQuant(tid int, src []float32, amax float32) {
	t := &in.prog.tensors[tid]
	scale := float64(amax) / quantLimit(t.dtype)
	if scale == 0 {
		scale = 1
	}
	var zp int32
	if t.dtype == graph.UInt8 {
		zp = 128
	}
	requantize(in.byteArena[t.off:t.off+t.size], src, t.dtype, scale, zp)
	in.scales[tid], in.zps[tid] = scale, zp
}

func (in *Instance) runStep(st *step) {
	out := &in.prog.tensors[st.out]
	switch st.op {
	case graph.OpConv2D, graph.OpDepthwiseConv2D, graph.OpDense:
		in.runMAC(st, out)
		return
	case graph.OpQuantize:
		off := 0
		src := in.floatViewAt(st.in[0], &off)
		if out.scale > 0 {
			requantize(in.raw(st.out), src, out.dtype, out.scale, out.zeroPoint)
			in.scales[st.out], in.zps[st.out] = out.scale, out.zeroPoint
		} else {
			in.storeQuant(st.out, src, absMax(0, src))
		}
		return
	case graph.OpDequantize:
		tid := st.in[0]
		t := &in.prog.tensors[tid]
		if t.isFloat {
			copy(in.f32(st.out), in.f32(tid))
		} else {
			dequantize(in.f32(st.out), in.raw(tid), t.dtype, in.scales[tid], in.zps[tid])
		}
		return
	}
	in.runGeneric(st, out)
}

// runMAC dispatches the conv/depthwise/dense triple across the three
// weight-dtype regimes: fp32 kernels, hybrid (float activations × raw int8
// weights) and full int8 (integer MAC with float epilogue).
func (in *Instance) runMAC(st *step, out *tensorInfo) {
	p := in.prog
	t0 := &p.tensors[st.in[0]]
	if t0.isFloat {
		src, dst := in.f32(st.in[0]), in.f32(st.out)
		in.macFloat(st, src, dst, t0, out)
		if st.fused.Valid() {
			applyActivation(dst, st.fused, nil, lastDimOf(out.shape))
		}
		return
	}
	// Quantized activations stage their real-valued result in scratch,
	// then dynamic-range requantize into the output buffer. Compile built
	// a Q8 kernel for int8 weights over int8/uint8 activations; the Q8
	// kernels apply the fused activation and return the result's range.
	dst := in.scratch[:out.elems]
	if st.wPacked != nil || st.wWide != nil {
		src := in.raw(st.in[0])
		zp, unsigned := in.zps[st.in[0]], t0.dtype == graph.UInt8
		epi := float32(in.scales[st.in[0]] * st.wScale)
		var amax float32
		switch st.op {
		case graph.OpConv2D:
			amax = conv2dQ8(dst, src, zp, unsigned, st.wPacked, st.bFloat, epi, st.fused, t0.shape, out.shape, st.attrs)
		case graph.OpDepthwiseConv2D:
			xq := in.scratch[out.elems:] // staging past the output, as for the float fallback
			amax = dwConvQ8(dst, xq, src, zp, unsigned, st.wWide, st.bFloat, epi, st.fused, t0.shape, out.shape, st.attrs)
		default:
			batch, inF, units := denseDims(t0, out)
			amax = denseQ8(dst, src, zp, unsigned, st.wPacked, st.bFloat, epi, st.fused, batch, inF, units)
		}
		in.storeQuant(st.out, dst, amax)
		return
	}
	// Int16 (or float-weight) fallback: dequantize activations to scratch
	// past the output staging region, then run the float path.
	off := out.elems
	src := in.floatViewAt(st.in[0], &off)
	in.macFloat(st, src, dst, t0, out)
	if st.fused.Valid() {
		applyActivation(dst, st.fused, nil, lastDimOf(out.shape))
	}
	in.storeQuant(st.out, dst, absMax(0, dst))
}

func (in *Instance) macFloat(st *step, src, dst []float32, t0, out *tensorInfo) {
	switch st.op {
	case graph.OpConv2D:
		if st.wRaw != nil {
			conv2dW8(dst, src, st.wRaw, st.bFloat, float32(st.wScale), t0.shape, out.shape, st.attrs)
		} else {
			conv2dF32(dst, src, st.wFloat, st.bFloat, t0.shape, out.shape, st.attrs)
		}
	case graph.OpDepthwiseConv2D:
		if st.wRaw != nil {
			dwConvW8(dst, src, st.wRaw, st.bFloat, float32(st.wScale), t0.shape, out.shape, st.attrs)
		} else {
			dwConvF32(dst, src, st.wFloat, st.bFloat, t0.shape, out.shape, st.attrs)
		}
	default:
		batch, inF, units := denseDims(t0, out)
		if st.wRaw != nil {
			denseW8(dst, src, st.wRaw, st.bFloat, float32(st.wScale), batch, inF, units)
		} else {
			denseF32(dst, src, st.wFloat, st.bFloat, batch, inF, units)
		}
	}
}

func denseDims(t0, out *tensorInfo) (batch, inF, units int) {
	batch = 1
	if len(t0.shape) > 0 && t0.shape[0] > 0 {
		batch = t0.shape[0]
	}
	return batch, t0.elems / batch, out.shape[len(out.shape)-1]
}

// runGeneric handles every remaining op through the fp32 kernels: inputs
// are viewed (or dequantized into scratch), the kernel writes into the
// output's float buffer (or a scratch staging area for quantized outputs),
// and quantized outputs are dynamic-range requantized at the end.
func (in *Instance) runGeneric(st *step, out *tensorInfo) {
	p := in.prog
	off := 0
	var dst []float32
	if out.isFloat {
		dst = in.f32(st.out)
	} else {
		dst = in.scratch[:out.elems]
		off = out.elems
	}
	views := in.views[:0]
	shapes := in.shapesBuf[:0]
	for _, tid := range st.in {
		views = append(views, in.floatViewAt(tid, &off))
		shapes = append(shapes, p.tensors[tid].shape)
	}
	x := views[0]
	inShape := shapes[0]

	switch st.op {
	case graph.OpTransposeConv2D:
		for i := range dst {
			dst[i] = 0
		}
		transposeConv2dF32(dst, x, st.wFloat, st.bFloat, inShape, out.shape, st.attrs)
	case graph.OpMaxPool:
		maxPoolF32(dst, x, inShape, out.shape, st.attrs)
	case graph.OpAvgPool:
		avgPoolF32(dst, x, inShape, out.shape, st.attrs)
	case graph.OpGlobalAvgPool:
		globalAvgPoolF32(dst, x, inShape)
	case graph.OpReLU, graph.OpReLU6, graph.OpSigmoid, graph.OpTanh,
		graph.OpSoftmax, graph.OpHardSwish, graph.OpPRelu, graph.OpLogistic:
		copy(dst, x)
		applyActivation(dst, st.op, st.wFloat, lastDimOf(out.shape))
	case graph.OpBatchNorm:
		batchNormF32(dst, x, st.wFloat, st.bFloat, lastDimOf(out.shape))
	case graph.OpAdd:
		if len(views) >= 2 {
			addF32(dst, x, views[1])
		} else {
			copy(dst, x)
		}
	case graph.OpMul:
		if len(views) >= 2 {
			mulF32(dst, x, views[1])
		} else {
			copy(dst, x)
		}
	case graph.OpConcat:
		concatF32(dst, views, shapes, st.attrs.Axis)
	case graph.OpReshape:
		copy(dst, x)
	case graph.OpSlice, graph.OpStridedSlice:
		sliceF32(dst, x, inShape, out.shape, st.attrs.Begin)
	case graph.OpResizeBilinear:
		resizeF32(dst, x, inShape, out.shape, true)
	case graph.OpResizeNearest:
		resizeF32(dst, x, inShape, out.shape, false)
	case graph.OpPad:
		padF32(dst, x, inShape, out.shape, st.attrs)
	case graph.OpMean:
		meanF32(dst, x, inShape, st.attrs.ReduceAxes)
	default:
		copy(dst, x) // unreachable: Validate rejected everything else
	}
	if st.fused.Valid() {
		applyActivation(dst, st.fused, nil, lastDimOf(out.shape))
	}
	if !out.isFloat {
		in.storeQuant(st.out, dst, absMax(0, dst))
	}
}

func lastDimOf(s graph.Shape) int {
	if len(s) == 0 {
		return 1
	}
	return s[len(s)-1]
}

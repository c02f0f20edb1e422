package exec

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
)

// Work caps for FuzzCompileRun, checked before Compile: a mutated shape or
// attribute can ask for an inference that is valid but takes seconds, or
// for gigabytes of arena or synthesized kernel, and the target is after
// panics, not slow graphs or allocations Compile does not bound.
const (
	fuzzMaxFLOPs  = 1 << 23 // analytic FLOPs per inference (graph.ProfileGraph)
	fuzzMaxElems  = 1 << 21 // activation elements: graph inputs plus every layer output
	fuzzMaxKernel = 1 << 22 // values in one MAC kernel, declared or synthesized
)

// FuzzCompileRun holds the interpreter to its contract on arbitrary graph
// blobs: graph.DecodeBinary, Compile, NewInstance, Run and Digest either
// return an error or run; none panics. The seeds are small zoo models in
// the three precision regimes, so mutations reach the fp32, W8 and Q8
// kernels, including the packed Q8 weights Compile builds from raw bytes.
func FuzzCompileRun(f *testing.F) {
	for _, spec := range []zoo.Spec{
		{Task: zoo.TaskCrashDetection, Opts: zoo.ArchOpts{Width: 0.25, TimeSteps: 4, Classes: 2}},
		{Task: zoo.TaskKeywordDetection, Opts: zoo.ArchOpts{Width: 0.1, TimeSteps: 4, Classes: 2}},
		{Task: zoo.TaskFaceDetection, Opts: zoo.ArchOpts{Width: 0.1, Resolution: 16}},
	} {
		for _, regime := range []struct{ ptq, w8 bool }{{false, false}, {true, false}, {false, true}} {
			spec.Seed, spec.Quantized, spec.WeightQuantized = 1, regime.ptq, regime.w8
			g, err := zoo.Build(spec)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(graph.EncodeBinary(g))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := graph.DecodeBinary(data)
		if err != nil || tooMuchWork(g) {
			return
		}
		p, err := Compile(g)
		if err != nil {
			return
		}
		in := p.NewInstance()
		in.Run(1)
		in.Digest()
	})
}

// tooMuchWork reports whether g is over the fuzz target's caps. Sizes are
// products in float64, which cannot wrap; with activations and kernels
// bounded, the int64 FLOP count cannot wrap either. A graph whose shapes
// do not infer or profile is within the caps: Compile must reject it.
func tooMuchWork(g *graph.Graph) bool {
	prof, err := graph.ProfileGraph(g)
	if err != nil {
		return false
	}
	env, err := g.InferShapes()
	if err != nil {
		return false
	}
	elems := 0.0
	for _, t := range g.Inputs {
		elems += shapeElems(t.Shape)
	}
	for i, lp := range prof.Layers {
		elems += shapeElems(lp.OutputShape)
		if l := &g.Layers[i]; len(l.Inputs) > 0 && kernelValues(l, env[l.Inputs[0]].Shape) > fuzzMaxKernel {
			return true
		}
	}
	return prof.FLOPs < 0 || prof.FLOPs > fuzzMaxFLOPs || elems > fuzzMaxElems
}

// shapeElems is a shape's element count as graph.Shape.Elements counts it,
// non-positive dimensions as 1, in float64.
func shapeElems(s graph.Shape) float64 {
	n := 1.0
	for _, d := range s {
		if d > 0 {
			n *= float64(d)
		}
	}
	return n
}

// kernelValues bounds the magnitude of the kernel size a conv, transpose
// conv, depthwise or dense layer has, or that Compile synthesizes for it
// when it carries no weights (syntheticKernel's products, in float64).
func kernelValues(l *graph.Layer, in graph.Shape) float64 {
	a := l.Attrs
	inC := 1.0
	if len(in) > 0 {
		inC = float64(in[len(in)-1])
	}
	taps := math.Abs(float64(a.KernelH) * float64(a.KernelW))
	switch l.Op {
	case graph.OpConv2D, graph.OpTransposeConv2D:
		return taps * math.Abs(inC*float64(a.Filters))
	case graph.OpDepthwiseConv2D:
		return taps * math.Abs(inC*float64(max(a.DepthMult, 1)))
	case graph.OpDense:
		return shapeElems(in) * math.Abs(float64(a.Units))
	}
	return 0
}

// FuzzRequantize holds requantize to quantCode on arbitrary float32 bit
// patterns stored the way storeQuant stores them: at the scale and zero
// point dynamicQuant derives from their own absMax, with that range given,
// so every finite range takes the clamp-free loop. dt picks int8, uint8 or
// int16; every stored byte must be quantCode's.
func FuzzRequantize(f *testing.F) {
	f.Add(byte(0), []byte{0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0x3f, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, dt byte, data []byte) {
		dtype := []graph.DType{graph.Int8, graph.UInt8, graph.Int16}[int(dt)%3]
		src := make([]float32, len(data)/4)
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[i*4:]))
		}
		amax := absMax(0, src)
		scale, zp := dynamicQuant(dtype, amax)
		got := make([]byte, len(src)*dtype.Size())
		requantize(got, src, dtype, scale, zp, amax)
		lo, hi := quantRange(dtype)
		for i, v := range src {
			q := quantCode(v, 1/scale, float64(zp), lo, hi)
			var c int32
			switch dtype {
			case graph.Int16:
				c = int32(int16(binary.LittleEndian.Uint16(got[i*2:])))
			case graph.UInt8:
				c = int32(got[i])
			default:
				c = int32(int8(got[i]))
			}
			if c != q {
				t.Fatalf("%v: %v (%#08x) at range %v stored %d, quantCode %d", dtype, v, math.Float32bits(v), amax, c, q)
			}
		}
	})
}

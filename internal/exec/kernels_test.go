package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/gaugenn/gaugenn/internal/nn/graph"
)

func almost(t *testing.T, name string, got, want []float32, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > tol {
			t.Fatalf("%s[%d] = %v, want %v (±%v)\n got %v\nwant %v", name, i, got[i], want[i], tol, got, want)
		}
	}
}

func TestConv2DF32(t *testing.T) {
	// 1×3×3×1 input, 2×2 kernel of ones, stride 1: VALID output is the
	// 2×2 window sums; SAME keeps 3×3 with truncated border windows.
	src := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	w := []float32{1, 1, 1, 1}
	in := graph.Shape{1, 3, 3, 1}
	a := graph.Attrs{KernelH: 2, KernelW: 2, StrideH: 1, StrideW: 1}

	valid := make([]float32, 4)
	conv2dF32(valid, src, w, nil, in, graph.Shape{1, 2, 2, 1}, a)
	almost(t, "conv valid", valid, []float32{12, 16, 24, 28}, 1e-6)

	a.PadSame = true
	same := make([]float32, 9)
	conv2dF32(same, src, w, []float32{1}, in, graph.Shape{1, 3, 3, 1}, a)
	// SAME with a 2×2 kernel pads bottom/right only; +1 bias everywhere.
	almost(t, "conv same", same, []float32{13, 17, 10, 25, 29, 16, 16, 18, 10}, 1e-6)
}

func TestConv2DDilated(t *testing.T) {
	// Dilation 2 makes a 2×2 kernel span 3 input positions: the only VALID
	// output of a 3×3 input is the four corners' sum.
	src := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	w := []float32{1, 1, 1, 1}
	a := graph.Attrs{KernelH: 2, KernelW: 2, StrideH: 1, StrideW: 1, Dilation: 2}
	dst := make([]float32, 1)
	conv2dF32(dst, src, w, nil, graph.Shape{1, 3, 3, 1}, graph.Shape{1, 1, 1, 1}, a)
	almost(t, "dilated conv", dst, []float32{1 + 3 + 7 + 9}, 1e-6)
}

func TestConvWeightLayoutHWIO(t *testing.T) {
	// 1×1 kernel, 2 in-channels, 2 filters: w[ic*outC+oc] — checks the
	// HWIO stride arithmetic directly.
	src := []float32{1, 10}
	w := []float32{1, 2, 3, 4} // ic0→(oc0:1, oc1:2), ic1→(oc0:3, oc1:4)
	dst := make([]float32, 2)
	a := graph.Attrs{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}
	conv2dF32(dst, src, w, nil, graph.Shape{1, 1, 1, 2}, graph.Shape{1, 1, 1, 2}, a)
	almost(t, "conv hwio", dst, []float32{1 + 30, 2 + 40}, 1e-6)
}

func TestDepthwiseConvF32(t *testing.T) {
	// 2 channels, 2×2 ones kernel, channel multiplier 1: per-channel
	// window sums, no cross-channel mixing.
	src := []float32{
		1, 100, 2, 200,
		3, 300, 4, 400,
	}
	w := []float32{1, 1, 1, 1, 1, 1, 1, 1} // [2,2,C=2,mult=1]
	dst := make([]float32, 2)
	a := graph.Attrs{KernelH: 2, KernelW: 2, StrideH: 1, StrideW: 1}
	dwConvF32(dst, src, w, nil, graph.Shape{1, 2, 2, 2}, graph.Shape{1, 1, 1, 2}, a)
	almost(t, "dwconv", dst, []float32{10, 1000}, 1e-6)
}

func TestDenseF32(t *testing.T) {
	// [1,3]×[3,2] row-major + bias.
	dst := make([]float32, 2)
	denseF32(dst, []float32{1, 2, 3}, []float32{1, 4, 2, 5, 3, 6}, []float32{10, 20}, 1, 3, 2)
	almost(t, "dense", dst, []float32{1*1 + 2*2 + 3*3 + 10, 1*4 + 2*5 + 3*6 + 20}, 1e-6)
}

func TestHybridMatchesFloat(t *testing.T) {
	// int8 weights {-2,-1,1,2} at scale 0.5 ≡ float weights {-1,-.5,.5,1}:
	// the W8 kernels must agree with the F32 kernels exactly (the weights
	// are exactly representable).
	src := []float32{1, 2, 3, 4}
	wq := []byte{0xFE, 0xFF, 0x01, 0x02}
	wf := []float32{-1, -0.5, 0.5, 1}
	a := graph.Attrs{KernelH: 2, KernelW: 2, StrideH: 1, StrideW: 1}
	in, out := graph.Shape{1, 2, 2, 1}, graph.Shape{1, 1, 1, 1}
	want := make([]float32, 1)
	conv2dF32(want, src, wf, nil, in, out, a)
	got := make([]float32, 1)
	conv2dW8(got, src, wq, nil, 0.5, in, out, a)
	almost(t, "hybrid conv", got, want, 1e-6)

	denseF32(want, src, wf, nil, 1, 4, 1)
	denseW8(got, src, wq, nil, 0.5, 1, 4, 1)
	almost(t, "hybrid dense", got, want, 1e-6)
}

func TestQ8IntegerMAC(t *testing.T) {
	// Quantized dense: x = {2,-3} at scale .1 (zp 0), w = {5,7} at scale
	// .01 → real dot = .2·.05 + (-.3)·.07 = -0.011.
	dst := make([]float32, 1)
	src := []byte{0x02, 0xFD}
	w := []byte{0x05, 0x07}
	denseQ8(dst, src, 0, false, packQ8(w, 1), nil, float32(0.1*0.01), graph.OpInvalid, 1, 2, 1)
	almost(t, "q8 dense", dst, []float32{-0.011}, 1e-7)

	// uint8 input with zero-point 128: q=130 ≡ +2, q=125 ≡ -3.
	denseQ8(dst, []byte{130, 125}, 128, true, packQ8(w, 1), nil, float32(0.1*0.01), graph.OpInvalid, 1, 2, 1)
	almost(t, "q8 dense u8", dst, []float32{-0.011}, 1e-7)
}

func TestPoolsF32(t *testing.T) {
	src := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	in := graph.Shape{1, 3, 3, 1}
	a := graph.Attrs{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2, PadSame: true}
	mx := make([]float32, 4)
	maxPoolF32(mx, src, in, graph.Shape{1, 2, 2, 1}, a)
	almost(t, "maxpool", mx, []float32{5, 6, 8, 9}, 1e-6)
	av := make([]float32, 4)
	avgPoolF32(av, src, in, graph.Shape{1, 2, 2, 1}, a)
	// Border windows average only their valid taps.
	almost(t, "avgpool", av, []float32{3, 4.5, 7.5, 9}, 1e-6)

	g := make([]float32, 1)
	globalAvgPoolF32(g, src, in)
	almost(t, "globalavg", g, []float32{5}, 1e-6)
}

func TestActivations(t *testing.T) {
	x := []float32{-7, -1, 0, 1, 7}
	relu := append([]float32(nil), x...)
	applyActivation(relu, graph.OpReLU, nil, 1)
	almost(t, "relu", relu, []float32{0, 0, 0, 1, 7}, 1e-6)

	relu6 := append([]float32(nil), x...)
	applyActivation(relu6, graph.OpReLU6, nil, 1)
	almost(t, "relu6", relu6, []float32{0, 0, 0, 1, 6}, 1e-6)

	hs := append([]float32(nil), x...)
	applyActivation(hs, graph.OpHardSwish, nil, 1)
	almost(t, "hardswish", hs, []float32{0, -1.0 / 3, 0, 2.0 / 3, 7}, 1e-6)

	pr := append([]float32(nil), x...)
	applyActivation(pr, graph.OpPRelu, []float32{0.1}, 1)
	almost(t, "prelu", pr, []float32{-0.7, -0.1, 0, 1, 7}, 1e-6)

	sig := []float32{0}
	applyActivation(sig, graph.OpSigmoid, nil, 1)
	almost(t, "sigmoid", sig, []float32{0.5}, 1e-6)

	th := []float32{0, 1}
	applyActivation(th, graph.OpTanh, nil, 1)
	almost(t, "tanh", th, []float32{0, float32(math.Tanh(1))}, 1e-6)

	sm := []float32{1, 1, 2, 2}
	applyActivation(sm, graph.OpSoftmax, nil, 2) // two rows of two
	almost(t, "softmax", sm, []float32{0.5, 0.5, 0.5, 0.5}, 1e-6)
}

func TestBatchNormF32(t *testing.T) {
	dst := make([]float32, 4)
	batchNormF32(dst, []float32{1, 2, 3, 4}, []float32{2, 10}, []float32{1, 0}, 2)
	almost(t, "batchnorm", dst, []float32{3, 20, 7, 40}, 1e-6)
	// nil γ/β is identity (detached-weight graphs).
	batchNormF32(dst, []float32{1, 2, 3, 4}, nil, nil, 2)
	almost(t, "batchnorm identity", dst, []float32{1, 2, 3, 4}, 1e-6)
}

func TestBinaryBroadcast(t *testing.T) {
	dst := make([]float32, 4)
	addF32(dst, []float32{1, 2, 3, 4}, []float32{10, 20, 30, 40})
	almost(t, "add full", dst, []float32{11, 22, 33, 44}, 1e-6)
	addF32(dst, []float32{1, 2, 3, 4}, []float32{10, 20}) // per-channel
	almost(t, "add channel", dst, []float32{11, 22, 13, 24}, 1e-6)
	mulF32(dst, []float32{1, 2, 3, 4}, []float32{10}) // scalar
	almost(t, "mul scalar", dst, []float32{10, 20, 30, 40}, 1e-6)
}

func TestConcatSlicePadMean(t *testing.T) {
	// Concat two [1,2,2] blocks on the channel axis.
	cat := make([]float32, 8)
	concatF32(cat, [][]float32{{1, 2, 3, 4}, {5, 6, 7, 8}},
		[]graph.Shape{{1, 2, 2}, {1, 2, 2}}, -1)
	almost(t, "concat", cat, []float32{1, 2, 5, 6, 3, 4, 7, 8}, 1e-6)

	// Slice the centre column of a 3×3.
	sl := make([]float32, 3)
	sliceF32(sl, []float32{1, 2, 3, 4, 5, 6, 7, 8, 9},
		graph.Shape{3, 3}, graph.Shape{3, 1}, []int{0, 1})
	almost(t, "slice", sl, []float32{2, 5, 8}, 1e-6)

	// Pad a 1×1×1×1 by one pixel each side.
	pd := make([]float32, 9)
	padF32(pd, []float32{5}, graph.Shape{1, 1, 1, 1}, graph.Shape{1, 3, 3, 1},
		graph.Attrs{PadH: 1, PadW: 1})
	almost(t, "pad", pd, []float32{0, 0, 0, 0, 5, 0, 0, 0, 0}, 1e-6)

	// Mean over H,W of a 1×2×2×2 keeps channels.
	mn := make([]float32, 2)
	meanF32(mn, []float32{1, 10, 2, 20, 3, 30, 4, 40},
		graph.Shape{1, 2, 2, 2}, []int{1, 2})
	almost(t, "mean", mn, []float32{2.5, 25}, 1e-6)
}

func TestResizeF32(t *testing.T) {
	src := []float32{1, 2, 3, 4}
	in, out := graph.Shape{1, 2, 2, 1}, graph.Shape{1, 4, 4, 1}
	nst := make([]float32, 16)
	resizeF32(nst, src, in, out, false)
	almost(t, "resize nearest", nst, []float32{
		1, 1, 2, 2, 1, 1, 2, 2, 3, 3, 4, 4, 3, 3, 4, 4}, 1e-6)

	bil := make([]float32, 16)
	resizeF32(bil, src, in, out, true)
	// Half-pixel bilinear: corners keep source values, centres interpolate.
	almost(t, "resize bilinear corners", []float32{bil[0], bil[3], bil[12], bil[15]},
		[]float32{1, 2, 3, 4}, 1e-6)
	almost(t, "resize bilinear centre", []float32{bil[5]}, []float32{(1*9 + 2*3 + 3*3 + 4) / 16.0}, 1e-3)
}

func TestTransposeConvF32(t *testing.T) {
	// 2×2 stride-2 ones kernel: each input pixel becomes a 2×2 block.
	dst := make([]float32, 16)
	w := []float32{1, 1, 1, 1} // [2,2,outC=1,inC=1]
	a := graph.Attrs{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}
	transposeConv2dF32(dst, []float32{1, 2, 3, 4}, w, nil,
		graph.Shape{1, 2, 2, 1}, graph.Shape{1, 4, 4, 1}, a)
	almost(t, "transpose conv", dst, []float32{
		1, 1, 2, 2, 1, 1, 2, 2, 3, 3, 4, 4, 3, 3, 4, 4}, 1e-6)
}

func TestQuantRoundTrip(t *testing.T) {
	src := []float32{-1.27, -0.5, 0, 0.3, 1.27}
	for _, dt := range []graph.DType{graph.Int8, graph.UInt8, graph.Int16} {
		buf := make([]byte, len(src)*dt.Size())
		scale := float64(absMax(0, src)) / quantLimit(dt)
		var zp int32
		if dt == graph.UInt8 {
			zp = 128
		}
		requantize(buf, src, dt, scale, zp)
		back := make([]float32, len(src))
		dequantize(back, buf, dt, scale, zp)
		almost(t, "roundtrip "+dt.String(), back, src, scale/2+1e-7)
	}
}

// TestRequantizeSaturates stores values at and past each dtype's range at
// scale 1: rounding is half to even, a value past the range stores the
// range's nearest end (±Inf and ±1e10 included, which overflow int32), and
// NaN stores the zero point.
func TestRequantizeSaturates(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	src := []float32{1e10, -1e10, inf, -inf, nan, 2.2e7, -2.2e7, 126.6, 127.4, 200, 0.5, -0.5, 1.5, -1.5, 2.5}
	for _, tc := range []struct {
		dt   graph.DType
		zp   int32
		want []int32
	}{
		{graph.Int8, 0, []int32{127, -128, 127, -128, 0, 127, -128, 127, 127, 127, 0, 0, 2, -2, 2}},
		{graph.UInt8, 128, []int32{255, 0, 255, 0, 128, 255, 0, 255, 255, 255, 128, 128, 130, 126, 130}},
		{graph.Int16, 0, []int32{32767, -32768, 32767, -32768, 0, 32767, -32768, 127, 127, 200, 0, 0, 2, -2, 2}},
	} {
		buf := make([]byte, len(src)*tc.dt.Size())
		requantize(buf, src, tc.dt, 1, tc.zp)
		for i, want := range tc.want {
			var got int32
			switch tc.dt {
			case graph.UInt8:
				got = int32(buf[i])
			case graph.Int16:
				got = int32(int16(binary.LittleEndian.Uint16(buf[i*2:])))
			default:
				got = int32(int8(buf[i]))
			}
			if got != want {
				t.Errorf("%s zero point %d: %v stored %d, want %d", tc.dt, tc.zp, src[i], got, want)
			}
		}
	}
}

// TestAbsMaxMatchesSignBranch checks the sign-masked range against
// maxAbsRef on the values where the two could part: NaN is ignored, -0
// counts as 0 and -Inf as +Inf.
func TestAbsMaxMatchesSignBranch(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	for _, x := range [][]float32{
		nil, {negZero}, {nan}, {nan, -3, 2}, {-3, nan, 2}, {1, -inf}, {inf, nan},
		{-1e-45, 1e-45}, {-2.5, 2.5, -0.1}, {negZero, -1, negZero},
	} {
		got, want := absMax(0, x), maxAbsRef(x)
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Errorf("absMax(%v) = %v, sign-branch loop %v", x, got, want)
		}
	}
}

func TestFloat16Decode(t *testing.T) {
	// 0x3C00=1.0, 0xC100=-2.5, 0x3800=0.5, 0x0001=smallest subnormal.
	got := decodeFloat16([]byte{0x00, 0x3C, 0x00, 0xC1, 0x00, 0x38, 0x01, 0x00})
	almost(t, "f16", got[:3], []float32{1, -2.5, 0.5}, 1e-6)
	if got[3] <= 0 || got[3] > 1e-7 {
		t.Errorf("subnormal decoded to %v", got[3])
	}
}

// The oracle test's kernel pairs: each production MAC kernel with its
// scalar reference from kernels_ref_test.go. A Q8 kernel also applies the
// fused activation and returns its output's range, which the reference
// leaves to applyActivation and maxAbsRef.
type (
	f32Conv   func(dst, src, w, bias []float32, in, out graph.Shape, a graph.Attrs)
	w8Conv    func(dst, src []float32, w []byte, bias []float32, wScale float32, in, out graph.Shape, a graph.Attrs)
	q8Conv    func(dst []float32, src []byte, srcZP int32, srcUnsigned bool, w []byte, bias []float32, outScale float32, act graph.OpType, in, out graph.Shape, a graph.Attrs) float32
	q8ConvRef func(dst []float32, src []byte, srcZP int32, srcUnsigned bool, w []byte, bias []float32, outScale float32, in, out graph.Shape, a graph.Attrs)
)

// conv2dQ8Packed runs conv2dQ8 on w packed as Compile packs it.
func conv2dQ8Packed(dst []float32, src []byte, srcZP int32, srcUnsigned bool, w []byte, bias []float32, outScale float32, act graph.OpType, in, out graph.Shape, a graph.Attrs) float32 {
	return conv2dQ8(dst, src, srcZP, srcUnsigned, packQ8(w, out[3]), bias, outScale, act, in, out, a)
}

// dwConvQ8Wide runs dwConvQ8 on w widened as Compile widens it, staging
// its inputs in a fresh buffer.
func dwConvQ8Wide(dst []float32, src []byte, srcZP int32, srcUnsigned bool, w []byte, bias []float32, outScale float32, act graph.OpType, in, out graph.Shape, a graph.Attrs) float32 {
	return dwConvQ8(dst, make([]float32, len(src)), src, srcZP, srcUnsigned, decodeInt8(w, 1), bias, outScale, act, in, out, a)
}

// q8Activations are the fused activations the Q8 oracle cases rotate
// through, none first.
var q8Activations = []graph.OpType{graph.OpInvalid, graph.OpReLU, graph.OpReLU6, graph.OpHardSwish,
	graph.OpSoftmax, graph.OpSigmoid, graph.OpTanh, graph.OpPRelu}

// TestKernelsMatchScalarOracle runs every MAC kernel and its scalar oracle
// on seeded random data and requires the outputs to be bit-identical: the
// output-channel-innermost loops must keep every fp32 sum's order, so a
// tolerance would hide exactly the change this test exists to catch.
func TestKernelsMatchScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const wScale, outScale = 0.0123, 0.00071
	// The Q8 kernels run on int8 and uint8 activations, each with a
	// non-zero zero-point.
	quantInputs := []struct {
		name     string
		unsigned bool
		zp       int32
	}{
		{"int8", false, 7},
		{"uint8", true, 121},
	}

	convs := []struct {
		op          graph.OpType
		f32, f32Ref f32Conv
		w8, w8Ref   w8Conv
		q8          q8Conv
		q8Ref       q8ConvRef
	}{
		{graph.OpConv2D, conv2dF32, conv2dF32Ref, conv2dW8, conv2dW8Ref, conv2dQ8Packed, conv2dQ8Ref},
		{graph.OpDepthwiseConv2D, dwConvF32, dwConvF32Ref, dwConvW8, dwConvW8Ref, dwConvQ8Wide, dwConvQ8Ref},
	}
	for ci, tc := range []struct {
		name          string
		n, h, w, c    int
		kh, kw        int
		filters, mult int
		stride, dil   int
		pad           string // "same", "valid" or "explicit"
		bias          bool
	}{
		{"1x1/valid/inC1/outC1", 1, 4, 5, 1, 1, 1, 1, 1, 1, 1, "valid", true},
		{"3x3/same/inC3/outC7", 1, 6, 7, 3, 3, 3, 7, 1, 1, 1, "same", false},
		{"3x3/same/stride2/inC5/outC9/mult2", 1, 7, 6, 5, 3, 3, 9, 2, 2, 1, "same", true},
		{"3x2/explicit/dilation2/outC24", 1, 9, 8, 3, 3, 2, 24, 1, 1, 2, "explicit", true},
		{"3x3/valid/stride2/batch2/outC24/mult2", 2, 8, 9, 7, 3, 3, 24, 2, 2, 1, "valid", false},
		{"5x5/same/outC300", 1, 5, 4, 3, 5, 5, 300, 1, 1, 1, "same", true},
		{"3x3/same/inC300/outC9", 1, 4, 4, 300, 3, 3, 9, 1, 1, 1, "same", true},
		{"3x3/same/stride2/dilation2/batch2/inC1", 2, 9, 9, 1, 3, 3, 17, 2, 2, 2, "same", false},
		// 529 taps: past qDepthTaps, so depthwise sums leave float32 once
		// in the interior and never at the SAME-padded border.
		{"23x23/valid/inC3/outC5", 1, 25, 24, 3, 23, 23, 5, 1, 1, 1, "valid", true},
		{"23x23/same/inC2/outC2", 1, 24, 24, 2, 23, 23, 2, 1, 1, 1, "same", false},
	} {
		a := graph.Attrs{
			KernelH: tc.kh, KernelW: tc.kw, StrideH: tc.stride, StrideW: tc.stride,
			Dilation: tc.dil, PadSame: tc.pad == "same", Filters: tc.filters, DepthMult: tc.mult,
		}
		if tc.pad == "explicit" {
			a.PadH, a.PadW = 2, 1
		}
		in := graph.Shape{tc.n, tc.h, tc.w, tc.c}
		for _, k := range convs {
			out := inferOut(t, k.op, in, a)
			nw := tc.kh * tc.kw * tc.c * out[3] // HWIO and [kh, kw, C, mult] alike
			if k.op == graph.OpDepthwiseConv2D {
				nw = tc.kh * tc.kw * out[3]
			}
			var bias []float32
			if tc.bias {
				bias = randFloats(rng, out[3])
			}
			x, wf, wq := randFloats(rng, int(in.Elements())), randFloats(rng, nw), randBytes(rng, nw, 0)
			name := k.op.String() + "/" + tc.name
			n := int(out.Elements())
			matchOracle(t, name+"/F32", n, func(dst []float32, ref bool) {
				pick(k.f32, k.f32Ref, ref)(dst, x, wf, bias, in, out, a)
			})
			matchOracle(t, name+"/W8", n, func(dst []float32, ref bool) {
				pick(k.w8, k.w8Ref, ref)(dst, x, wq, bias, wScale, in, out, a)
			})
			act := q8Activations[ci%len(q8Activations)]
			for _, qi := range quantInputs {
				xq := randBytes(rng, len(x), byte(qi.zp))
				matchQ8Oracle(t, name+"/Q8/"+qi.name+"/"+act.String(), n, out[3], act,
					func(dst []float32) float32 {
						return k.q8(dst, xq, qi.zp, qi.unsigned, wq, bias, outScale, act, in, out, a)
					},
					func(dst []float32) { k.q8Ref(dst, xq, qi.zp, qi.unsigned, wq, bias, outScale, in, out, a) })
			}
		}
	}

	for di, tc := range []struct {
		batch, inF, units int
		bias              bool
	}{
		{1, 1, 1, true},
		{2, 7, 9, false},
		{1, 13, 24, true},
		{2, 5, 300, true},
		{1, 300, 7, false},
	} {
		name := fmt.Sprintf("dense/batch%d/inF%d/units%d", tc.batch, tc.inF, tc.units)
		var bias []float32
		if tc.bias {
			bias = randFloats(rng, tc.units)
		}
		x := randFloats(rng, tc.batch*tc.inF)
		wf, wq := randFloats(rng, tc.inF*tc.units), randBytes(rng, tc.inF*tc.units, 0)
		n := tc.batch * tc.units
		matchOracle(t, name+"/F32", n, func(dst []float32, ref bool) {
			pick(denseF32, denseF32Ref, ref)(dst, x, wf, bias, tc.batch, tc.inF, tc.units)
		})
		matchOracle(t, name+"/W8", n, func(dst []float32, ref bool) {
			pick(denseW8, denseW8Ref, ref)(dst, x, wq, bias, wScale, tc.batch, tc.inF, tc.units)
		})
		act := q8Activations[di%len(q8Activations)]
		for _, qi := range quantInputs {
			xq := randBytes(rng, len(x), byte(qi.zp))
			matchDenseQ8(t, name+"/Q8/"+qi.name+"/"+act.String(), xq, qi.zp, qi.unsigned, wq, bias, outScale, act, tc.batch, tc.inF, tc.units)
		}
	}

	// Sums past int32 range. Dense: every input and weight 127, so each
	// output sums inF products of 16129; 140000 of them (2.26e9) wrap
	// once, and 266288 (4294959152) wrap to -8144, which float32 holds
	// exactly, so an int32 sum off by one changes the output. Both span
	// several qPass passes, and an odd unit count leaves a half-empty last
	// lane.
	for _, inF := range []int{140000, 266288} {
		const units = 3
		xq, wq := filled(inF, 127), filled(inF*units, 127)
		matchDenseQ8(t, fmt.Sprintf("dense/overflow/inF%d", inF), xq, 0, false, wq, nil, 1, graph.OpInvalid, 1, inF, units)
	}
	// Conv2d and depthwise: a 1×131587 kernel over uint8 255s with zero
	// point 0 and weights -128, but for one -127, sums 131586 products of
	// -32640 and one of -32385, which wrap to -32129, across qPass passes
	// and qDepthTaps flushes. The -127 is tap qDepthTaps+1: a float32 sum
	// over that many taps would reach an odd integer past 2^24, which
	// float32 cannot hold.
	const taps = 131587
	in, out := graph.Shape{1, 1, taps, 1}, graph.Shape{1, 1, 1, 1}
	a := graph.Attrs{KernelH: 1, KernelW: taps, StrideH: 1, StrideW: 1, Filters: 1, DepthMult: 1}
	xq, wq := filled(taps, 255), filled(taps, 0x80)
	wq[qDepthTaps] = 0x81
	for _, k := range convs {
		matchQ8Oracle(t, k.op.String()+"/overflow", 1, 1, graph.OpInvalid,
			func(dst []float32) float32 { return k.q8(dst, xq, 0, true, wq, nil, 1, graph.OpInvalid, in, out, a) },
			func(dst []float32) { k.q8Ref(dst, xq, 0, true, wq, nil, 1, in, out, a) })
	}
}

// filled returns n bytes of value b.
func filled(n int, b byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// matchDenseQ8 runs denseQ8 on w packed as Compile packs it against
// denseQ8Ref.
func matchDenseQ8(t *testing.T, name string, x []byte, zp int32, unsigned bool, w []byte, bias []float32, outScale float32, act graph.OpType, batch, inF, units int) {
	t.Helper()
	matchQ8Oracle(t, name, batch*units, units, act,
		func(dst []float32) float32 {
			return denseQ8(dst, x, zp, unsigned, packQ8(w, units), bias, outScale, act, batch, inF, units)
		},
		func(dst []float32) { denseQ8Ref(dst, x, zp, unsigned, w, bias, outScale, batch, inF, units) })
}

// matchQ8Oracle compares a Q8 kernel with its scalar oracle followed by
// the fused activation over rows of the channel axis: the outputs bit for
// bit, and the range the kernel returns with maxAbsRef of the oracle's.
func matchQ8Oracle(t *testing.T, name string, n, channels int, act graph.OpType, kernel func(dst []float32) float32, oracle func(dst []float32)) {
	t.Helper()
	var got, want float32
	matchOracle(t, name, n, func(dst []float32, ref bool) {
		if !ref {
			got = kernel(dst)
			return
		}
		oracle(dst)
		if act.Valid() {
			applyActivation(dst, act, nil, channels)
		}
		want = maxAbsRef(dst)
	})
	if math.Float32bits(got) != math.Float32bits(want) {
		t.Errorf("%s: range %v, oracle %v", name, got, want)
	}
}

func pick[F any](kernel, oracle F, ref bool) F {
	if ref {
		return oracle
	}
	return kernel
}

// matchOracle runs a kernel and its oracle into NaN-filled buffers of n
// elements and compares the results bit for bit.
func matchOracle(t *testing.T, name string, n int, run func(dst []float32, ref bool)) {
	t.Helper()
	got, want := make([]float32, n), make([]float32, n)
	for i := range got {
		got[i], want[i] = float32(math.NaN()), float32(math.NaN())
	}
	run(got, false)
	run(want, true)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Errorf("%s[%d] = %v (%#08x), oracle %v (%#08x)", name, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			return
		}
	}
}

// inferOut is the output shape shape inference gives a one-layer graph.
func inferOut(t *testing.T, op graph.OpType, in graph.Shape, a graph.Attrs) graph.Shape {
	t.Helper()
	g := &graph.Graph{
		Name:   "oracle",
		Inputs: []graph.Tensor{{Name: "x", Shape: in, DType: graph.Float32}},
		Layers: []graph.Layer{{Name: "l", Op: op, Inputs: []string{"x"}, Outputs: []string{"y"}, Attrs: a}},
	}
	env, err := g.InferShapes()
	if err != nil {
		t.Fatal(err)
	}
	return env["y"].Shape
}

// randFloats draws n values uniform in [-1, 1), a fifth of them exactly 0
// (as after a ReLU).
func randFloats(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		if rng.Intn(5) > 0 {
			out[i] = rng.Float32()*2 - 1
		}
	}
	return out
}

// randBytes draws n random bytes, a quarter of them equal to zero (the
// quantized zero-point, so the Q8 kernels meet zero-valued taps).
func randBytes(rng *rand.Rand, n int, zero byte) []byte {
	out := make([]byte, n)
	for i := range out {
		if rng.Intn(4) > 0 {
			out[i] = byte(rng.Intn(256))
		} else {
			out[i] = zero
		}
	}
	return out
}

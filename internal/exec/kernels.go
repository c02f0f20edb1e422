package exec

import (
	"math"

	"github.com/gaugenn/gaugenn/internal/nn/graph"
)

// Reference fp32 kernels. Contracts shared by every kernel in this file:
//
//   - Layouts follow the graph builder: activations NHWC, conv kernels HWIO
//     [kh, kw, inC, outC], depthwise kernels [kh, kw, C, mult] (output
//     channel c*mult+m), transpose-conv kernels [kh, kw, outC, inC], dense
//     weights [inF, units] row-major.
//   - dst and src never alias (the arena planner keeps a layer's output
//     disjoint from its live inputs).
//   - Each output's summation order is fixed: loops may be interchanged
//     and output channels tiled, but no sum is split or reordered, so
//     results are bitwise reproducible across runs, workers and pool
//     sizes — the property the determinism and golden-digest tests pin
//     down.
//   - Kernels never allocate; any staging space comes from the caller.
//
// SAME padding follows the TensorFlow convention: total padding
// max(0, (out-1)*stride + effectiveKernel - in), split with the smaller
// half leading.

// padOrigin resolves the top/left padding for a conv/pool layer, taking the
// effective (dilated) kernel extent.
func padOrigin(a graph.Attrs, inH, inW, outH, outW, effKH, effKW int) (padT, padL int) {
	if !a.PadSame {
		return a.PadH, a.PadW
	}
	if t := (outH-1)*a.StrideH + effKH - inH; t > 0 {
		padT = t / 2
	}
	if l := (outW-1)*a.StrideW + effKW - inW; l > 0 {
		padL = l / 2
	}
	return padT, padL
}

func dilationOf(a graph.Attrs) int {
	if a.Dilation > 1 {
		return a.Dilation
	}
	return 1
}

// The MAC kernels below (conv2d, depthwise and dense, each over fp32
// weights (F32), raw int8 weights (W8) and int8 activations with int8
// weights (Q8)) run the output channel innermost: for one output pixel,
// each valid input tap is broadcast against that tap's contiguous weight
// row into the pixel's accumulators, so weights stream at unit stride and
// every input value is loaded once per row rather than once per output.
// Each fp32 output still sums exactly the products the one-output-at-a-time
// loop sums, in its order — starting from +0, over (kh, kw, ic) for conv,
// (kh, kw) for depthwise and f for dense, then the W8 weight scale, then
// the bias — so the interchange moves no output bit; int32 sums are exact
// in any order. kernels_ref_test.go keeps that scalar loop as the oracle.
// The Q8 kernels carry their int32 sums in wider forms that give the same
// integers: conv2d and dense sum two output channels per int64 lane
// (packQ8), depthwise sums small integers in float32, which holds them
// exactly (qDepthTaps).

// convTile is how many output channels conv2dF32 sums at once in
// registers; the remaining outC mod convTile accumulate in dst.
const convTile = 8

// qBlock is the size of the stack block of int32 sums the Q8 kernels fill:
// output channels are summed qBlock at a time.
const qBlock = 256

// qPass bounds how many products a packed Q8 lane sums between flushes.
// A zero-point-corrected input lies in [-255, 255] (Compile keeps static
// zero points inside their dtype's range) and a weight in [-128, 127], so
// a pass's low-lane sum stays below 65536·255·128 < 2^31 in magnitude:
// inside int32 range, which is what lets q8Flush split a lane exactly.
const qPass = 1 << 16

// tapRange returns the kernel taps [k0, k1) whose input coordinate
// origin + k·dil lies in [0, size); the taps outside read padding.
func tapRange(origin, dil, k, size int) (k0, k1 int) {
	for k0 < k && origin+k0*dil < 0 {
		k0++
	}
	k1 = k
	for k1 > k0 && origin+(k1-1)*dil >= size {
		k1--
	}
	return k0, k1
}

// quantFlip returns the mask and offset that read a quantized activation
// byte b as its zero-point-corrected value int32(int8(b^flip)) + off
// without a branch: uint8 b equals int8(b^0x80) + 128.
func quantFlip(unsigned bool, zp int32) (flip byte, off int32) {
	if unsigned {
		return 0x80, 128 - zp
	}
	return 0, -zp
}

// addBias adds bias (nil for none) to the sums in y.
func addBias(y, bias []float32) {
	if bias != nil {
		for i, b := range bias[:len(y)] {
			y[i] += b
		}
	}
}

// w8Epilogue rescales hybrid sums by the weight scale and adds the bias.
func w8Epilogue(y, bias []float32, wScale float32) {
	for i := range y {
		y[i] *= wScale
	}
	addBias(y, bias)
}

// q8Epilogue writes real = sum · scale (+ bias[base+j]) for one block of
// int32 sums, or of float32 sums holding integers exactly (y may be sums).
func q8Epilogue[S int32 | float32](y []float32, sums []S, bias []float32, base int, scale float32) {
	y = y[:len(sums)]
	for j, s := range sums {
		r := float32(s) * scale
		if bias != nil {
			r += bias[base+j]
		}
		y[j] = r
	}
}

// q8Finish ends one output row of a Q8 MAC step (a pixel's channels, or a
// dense row) while it is still in cache: it applies the step's fused
// activation and folds the row's largest |v| into m, the step's dynamic
// range. Activations are per element or, for softmax, per row of the
// channel axis, so rows give the values one pass over the whole output
// would.
func q8Finish(y []float32, act graph.OpType, m float32) float32 {
	if act.Valid() {
		applyActivation(y, act, nil, len(y))
	}
	return absMax(m, y)
}

// packQ8 packs int8 weight rows of outC values two output channels per
// int64: lane j of a row holds int64(w[2j]) + int64(w[2j+1])<<32, its high
// half 0 past an odd outC. One 64-bit multiply-add then advances two int32
// sums: q·lane adds q·w[2j] to the low half and q·w[2j+1] to the high
// half, the low half's sign borrowing from the high half (q8Flush undoes
// the borrow).
func packQ8(w []byte, outC int) []int64 {
	lanes := (outC + 1) / 2
	p := make([]int64, len(w)/outC*lanes)
	for r := range len(w) / outC {
		row, dst := w[r*outC:][:outC], p[r*lanes:][:lanes]
		for j := range dst {
			var hi int64
			if 2*j+1 < outC {
				hi = int64(int8(row[2*j+1]))
			}
			dst[j] = int64(int8(row[2*j])) + hi<<32
		}
	}
	return p
}

// q8Lanes multiplies each zero-point-corrected input of x into the packed
// lanes L, against the packed weight row that starts at w[wi] (rows rowL
// lanes apart); zero inputs add nothing and are skipped. It returns the
// index of the row after x's last. It stays a call: inlined into the
// kernels' loop nests, its per-input loop reloaded its operands from the
// stack and ran conv2dQ8 15-20 % slower on amd64.
//
//go:noinline
func q8Lanes(L []int64, x []byte, flip byte, off int32, w []int64, wi, rowL int) int {
	for _, b := range x {
		if q := int64(int32(int8(b^flip)) + off); q != 0 {
			r := w[wi:][:len(L)]
			for j, p := range r {
				L[j] += q * p
			}
		}
		wi += rowL
	}
	return wi
}

// q8Flush adds each lane's two int32 sums into sums, wrapping as int32
// accumulators do, and clears the lanes. The low sum is the lane's low 32
// bits; subtracting it sign-extended removes its borrow, leaving the high
// sum in the top 32 bits. Both are the exact int32 sums because qPass
// keeps a pass's low sum inside int32 range.
func q8Flush(sums []int32, L []int64) {
	for j, l := range L {
		lo := int32(l)
		sums[2*j] += lo
		if 2*j+1 < len(sums) {
			sums[2*j+1] += int32((l - int64(lo)) >> 32)
		}
		L[j] = 0
	}
}

// conv2dF32 is the direct (non-im2col) convolution. Output channels are
// summed convTile at a time in registers, the last outC mod convTile in
// dst.
func conv2dF32(dst, src, w, bias []float32, in, out graph.Shape, a graph.Attrs) {
	inH, inW, inC := in[1], in[2], in[3]
	outH, outW, outC := out[1], out[2], out[3]
	dil := dilationOf(a)
	effKH, effKW := (a.KernelH-1)*dil+1, (a.KernelW-1)*dil+1
	padT, padL := padOrigin(a, inH, inW, outH, outW, effKH, effKW)
	tapW := inC * outC // weights per kernel tap
	for n := 0; n < in[0]; n++ {
		srcN := src[n*inH*inW*inC:]
		dstN := dst[n*outH*outW*outC:]
		for oh := 0; oh < outH; oh++ {
			ih0 := oh*a.StrideH - padT
			kh0, kh1 := tapRange(ih0, dil, a.KernelH, inH)
			for ow := 0; ow < outW; ow++ {
				iw0 := ow*a.StrideW - padL
				kw0, kw1 := tapRange(iw0, dil, a.KernelW, inW)
				y := dstN[(oh*outW+ow)*outC:][:outC]
				oc := 0
				for ; oc+convTile <= outC; oc += convTile {
					var s0, s1, s2, s3, s4, s5, s6, s7 float32
					for kh := kh0; kh < kh1; kh++ {
						for kw := kw0; kw < kw1; kw++ {
							x := srcN[((ih0+kh*dil)*inW+iw0+kw*dil)*inC:][:inC]
							wi := (kh*a.KernelW+kw)*tapW + oc
							for _, v := range x {
								r := w[wi : wi+convTile : wi+convTile]
								wi += outC
								s0 += v * r[0]
								s1 += v * r[1]
								s2 += v * r[2]
								s3 += v * r[3]
								s4 += v * r[4]
								s5 += v * r[5]
								s6 += v * r[6]
								s7 += v * r[7]
							}
						}
					}
					if bias != nil {
						b := bias[oc : oc+convTile : oc+convTile]
						s0 += b[0]
						s1 += b[1]
						s2 += b[2]
						s3 += b[3]
						s4 += b[4]
						s5 += b[5]
						s6 += b[6]
						s7 += b[7]
					}
					t := y[oc : oc+convTile : oc+convTile]
					t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7] = s0, s1, s2, s3, s4, s5, s6, s7
				}
				if oc == outC {
					continue
				}
				t := y[oc:]
				clear(t)
				for kh := kh0; kh < kh1; kh++ {
					for kw := kw0; kw < kw1; kw++ {
						x := srcN[((ih0+kh*dil)*inW+iw0+kw*dil)*inC:][:inC]
						wi := (kh*a.KernelW+kw)*tapW + oc
						for _, v := range x {
							r := w[wi:][:len(t)]
							wi += outC
							for j, wv := range r {
								t[j] += v * wv
							}
						}
					}
				}
				if bias != nil {
					addBias(t, bias[oc:])
				}
			}
		}
	}
}

// conv2dW8 is the hybrid variant: float activations against the graph's
// raw int8 weight bytes (read in place, never copied), rescaled by the
// per-tensor weight scale in the epilogue. Sums accumulate in dst.
func conv2dW8(dst, src []float32, w []byte, bias []float32, wScale float32, in, out graph.Shape, a graph.Attrs) {
	inH, inW, inC := in[1], in[2], in[3]
	outH, outW, outC := out[1], out[2], out[3]
	dil := dilationOf(a)
	effKH, effKW := (a.KernelH-1)*dil+1, (a.KernelW-1)*dil+1
	padT, padL := padOrigin(a, inH, inW, outH, outW, effKH, effKW)
	tapW := inC * outC
	for n := 0; n < in[0]; n++ {
		srcN := src[n*inH*inW*inC:]
		dstN := dst[n*outH*outW*outC:]
		for oh := 0; oh < outH; oh++ {
			ih0 := oh*a.StrideH - padT
			kh0, kh1 := tapRange(ih0, dil, a.KernelH, inH)
			for ow := 0; ow < outW; ow++ {
				iw0 := ow*a.StrideW - padL
				kw0, kw1 := tapRange(iw0, dil, a.KernelW, inW)
				y := dstN[(oh*outW+ow)*outC:][:outC]
				clear(y)
				for kh := kh0; kh < kh1; kh++ {
					for kw := kw0; kw < kw1; kw++ {
						x := srcN[((ih0+kh*dil)*inW+iw0+kw*dil)*inC:][:inC]
						wi := (kh*a.KernelW + kw) * tapW
						for _, v := range x {
							r := w[wi:][:len(y)]
							wi += outC
							for oc, wb := range r {
								y[oc] += v * float32(int8(wb))
							}
						}
					}
				}
				w8Epilogue(y, bias, wScale)
			}
		}
	}
}

// conv2dQ8 is the full int8 path: integer MAC over quantized activations
// and the packed weights (packQ8) into packed lanes, flushed into a stack
// block of int32 sums, with a float epilogue
// real = acc · inScale · wScale + bias staged into dst (caller-provided
// float scratch) and the fused activation applied row by row. It returns
// the largest |real| written, the output's dynamic range.
func conv2dQ8(dst []float32, src []byte, srcZP int32, srcUnsigned bool, w []int64, bias []float32, outScale float32, act graph.OpType, in, out graph.Shape, a graph.Attrs) float32 {
	inH, inW, inC := in[1], in[2], in[3]
	outH, outW, outC := out[1], out[2], out[3]
	dil := dilationOf(a)
	effKH, effKW := (a.KernelH-1)*dil+1, (a.KernelW-1)*dil+1
	padT, padL := padOrigin(a, inH, inW, outH, outW, effKH, effKW)
	rowL := (outC + 1) / 2 // lanes per packed weight row
	flip, off := quantFlip(srcUnsigned, srcZP)
	var lanes [qBlock / 2]int64
	var acc [qBlock]int32
	var amax float32
	for n := 0; n < in[0]; n++ {
		srcN := src[n*inH*inW*inC:]
		dstN := dst[n*outH*outW*outC:]
		for oh := 0; oh < outH; oh++ {
			ih0 := oh*a.StrideH - padT
			kh0, kh1 := tapRange(ih0, dil, a.KernelH, inH)
			for ow := 0; ow < outW; ow++ {
				iw0 := ow*a.StrideW - padL
				kw0, kw1 := tapRange(iw0, dil, a.KernelW, inW)
				y := dstN[(oh*outW+ow)*outC:][:outC]
				for oc := 0; oc < outC; oc += qBlock {
					sums := acc[:min(qBlock, outC-oc)]
					L := lanes[:(len(sums)+1)/2]
					clear(sums)
					left := qPass
					for kh := kh0; kh < kh1; kh++ {
						for kw := kw0; kw < kw1; kw++ {
							x := srcN[((ih0+kh*dil)*inW+iw0+kw*dil)*inC:][:inC]
							wi := (kh*a.KernelW+kw)*inC*rowL + oc/2
							for len(x) > left {
								wi = q8Lanes(L, x[:left], flip, off, w, wi, rowL)
								x = x[left:]
								q8Flush(sums, L)
								left = qPass
							}
							q8Lanes(L, x, flip, off, w, wi, rowL)
							left -= len(x)
						}
					}
					q8Flush(sums, L)
					q8Epilogue(y[oc:], sums, bias, oc, outScale)
				}
				amax = q8Finish(y, act, amax)
			}
		}
	}
	return amax
}

// dwConvF32 is depthwise convolution: each input channel convolved with its
// own kernel column; output channel c*mult+m. A tap's weights
// [kh, kw, :, :] are one contiguous row over the output channels; sums
// accumulate in dst.
func dwConvF32(dst, src, w, bias []float32, in, out graph.Shape, a graph.Attrs) {
	inH, inW, inC := in[1], in[2], in[3]
	outH, outW, outC := out[1], out[2], out[3]
	mult := outC / inC
	dil := dilationOf(a)
	effKH, effKW := (a.KernelH-1)*dil+1, (a.KernelW-1)*dil+1
	padT, padL := padOrigin(a, inH, inW, outH, outW, effKH, effKW)
	for n := 0; n < in[0]; n++ {
		srcN := src[n*inH*inW*inC:]
		dstN := dst[n*outH*outW*outC:]
		for oh := 0; oh < outH; oh++ {
			ih0 := oh*a.StrideH - padT
			kh0, kh1 := tapRange(ih0, dil, a.KernelH, inH)
			for ow := 0; ow < outW; ow++ {
				iw0 := ow*a.StrideW - padL
				kw0, kw1 := tapRange(iw0, dil, a.KernelW, inW)
				y := dstN[(oh*outW+ow)*outC:][:outC]
				clear(y)
				for kh := kh0; kh < kh1; kh++ {
					for kw := kw0; kw < kw1; kw++ {
						x := srcN[((ih0+kh*dil)*inW+iw0+kw*dil)*inC:][:inC]
						r := w[(kh*a.KernelW+kw)*outC:][:len(y)]
						if mult == 1 {
							x = x[:len(y)]
							for c, wv := range r {
								y[c] += x[c] * wv
							}
							continue
						}
						for oc, wv := range r {
							y[oc] += x[oc/mult] * wv
						}
					}
				}
				addBias(y, bias)
			}
		}
	}
}

// dwConvW8 is the hybrid depthwise variant (float activations, raw int8
// weights).
func dwConvW8(dst, src []float32, w []byte, bias []float32, wScale float32, in, out graph.Shape, a graph.Attrs) {
	inH, inW, inC := in[1], in[2], in[3]
	outH, outW, outC := out[1], out[2], out[3]
	mult := outC / inC
	dil := dilationOf(a)
	effKH, effKW := (a.KernelH-1)*dil+1, (a.KernelW-1)*dil+1
	padT, padL := padOrigin(a, inH, inW, outH, outW, effKH, effKW)
	for n := 0; n < in[0]; n++ {
		srcN := src[n*inH*inW*inC:]
		dstN := dst[n*outH*outW*outC:]
		for oh := 0; oh < outH; oh++ {
			ih0 := oh*a.StrideH - padT
			kh0, kh1 := tapRange(ih0, dil, a.KernelH, inH)
			for ow := 0; ow < outW; ow++ {
				iw0 := ow*a.StrideW - padL
				kw0, kw1 := tapRange(iw0, dil, a.KernelW, inW)
				y := dstN[(oh*outW+ow)*outC:][:outC]
				clear(y)
				for kh := kh0; kh < kh1; kh++ {
					for kw := kw0; kw < kw1; kw++ {
						x := srcN[((ih0+kh*dil)*inW+iw0+kw*dil)*inC:][:inC]
						r := w[(kh*a.KernelW+kw)*outC:][:len(y)]
						if mult == 1 {
							x = x[:len(y)]
							for c, wb := range r {
								y[c] += x[c] * float32(int8(wb))
							}
							continue
						}
						for oc, wb := range r {
							y[oc] += x[oc/mult] * float32(int8(wb))
						}
					}
				}
				w8Epilogue(y, bias, wScale)
			}
		}
	}
}

// qDepthTaps is how many taps dwConvQ8 sums in float32 before it moves
// the sums into int32. A product of a zero-point-corrected input and a
// weight is an integer of magnitude at most 255·128, and float32 holds
// every integer below 2^24 exactly; qDepthTaps·255·128 < 2^24, so every
// float32 sum is exact.
const qDepthTaps = 514

// dwConvQ8 is the full int8 depthwise path. It stages the zero-point-
// corrected inputs in xq as float32 and multiplies them by the kernel's
// int8 weights held as float32 (w): both are small integers, so every
// product and every sum of up to qDepthTaps products is exact, and summing
// in float32 gives the int32 sums bit for bit at the fp32 kernel's speed.
// A pixel with more valid taps moves its sums into a stack block of int32
// every qDepthTaps taps. The epilogue, fused activation and returned range
// are conv2dQ8's.
func dwConvQ8(dst, xq []float32, src []byte, srcZP int32, srcUnsigned bool, w, bias []float32, outScale float32, act graph.OpType, in, out graph.Shape, a graph.Attrs) float32 {
	inH, inW, inC := in[1], in[2], in[3]
	outH, outW, outC := out[1], out[2], out[3]
	mult := outC / inC
	dil := dilationOf(a)
	effKH, effKW := (a.KernelH-1)*dil+1, (a.KernelW-1)*dil+1
	padT, padL := padOrigin(a, inH, inW, outH, outW, effKH, effKW)
	flip, off := quantFlip(srcUnsigned, srcZP)
	xq = xq[:len(src)]
	for i, b := range src {
		xq[i] = float32(int32(int8(b^flip)) + off)
	}
	var acc [qBlock]int32
	var amax float32
	for n := 0; n < in[0]; n++ {
		srcN := xq[n*inH*inW*inC:]
		dstN := dst[n*outH*outW*outC:]
		for oh := 0; oh < outH; oh++ {
			ih0 := oh*a.StrideH - padT
			kh0, kh1 := tapRange(ih0, dil, a.KernelH, inH)
			for ow := 0; ow < outW; ow++ {
				iw0 := ow*a.StrideW - padL
				kw0, kw1 := tapRange(iw0, dil, a.KernelW, inW)
				y := dstN[(oh*outW+ow)*outC:][:outC]
				for oc := 0; oc < outC; oc += qBlock {
					sums := y[oc:min(oc+qBlock, outC)]
					clear(sums)
					flushed, left := false, qDepthTaps
					for kh := kh0; kh < kh1; kh++ {
						for kw := kw0; kw < kw1; kw++ {
							if left == 0 {
								if !flushed {
									clear(acc[:len(sums)])
								}
								q8DepthFlush(acc[:len(sums)], sums)
								flushed, left = true, qDepthTaps
							}
							left--
							x := srcN[((ih0+kh*dil)*inW+iw0+kw*dil)*inC:][:inC]
							r := w[(kh*a.KernelW+kw)*outC+oc:][:len(sums)]
							if mult == 1 {
								x = x[oc:][:len(sums)]
								for j, wv := range r {
									sums[j] += x[j] * wv
								}
								continue
							}
							for j, wv := range r {
								sums[j] += x[(oc+j)/mult] * wv
							}
						}
					}
					if flushed {
						for j, s := range acc[:len(sums)] {
							sums[j] = float32(s + int32(sums[j]))
						}
					}
					q8Epilogue(sums, sums, bias, oc, outScale)
				}
				amax = q8Finish(y, act, amax)
			}
		}
	}
	return amax
}

// q8DepthFlush adds exact float32 sums into int32 ones, wrapping as int32
// accumulators do, and clears the float32 sums.
func q8DepthFlush(acc []int32, sums []float32) {
	acc = acc[:len(sums)]
	for j, s := range sums {
		acc[j] += int32(s)
		sums[j] = 0
	}
}

// denseF32 is the fully connected layer over flattened features: each
// feature is broadcast against its weight row into the outputs in dst.
func denseF32(dst, src, w, bias []float32, batch, inF, units int) {
	for n := 0; n < batch; n++ {
		x := src[n*inF : (n+1)*inF]
		y := dst[n*units : (n+1)*units]
		clear(y)
		for f, v := range x {
			r := w[f*units:][:len(y)]
			for u, wv := range r {
				y[u] += v * wv
			}
		}
		addBias(y, bias)
	}
}

func denseW8(dst, src []float32, w []byte, bias []float32, wScale float32, batch, inF, units int) {
	for n := 0; n < batch; n++ {
		x := src[n*inF : (n+1)*inF]
		y := dst[n*units : (n+1)*units]
		clear(y)
		for f, v := range x {
			r := w[f*units:][:len(y)]
			for u, wb := range r {
				y[u] += v * float32(int8(wb))
			}
		}
		w8Epilogue(y, bias, wScale)
	}
}

// denseQ8 is the full int8 fully connected layer over the packed weights
// (packQ8), with conv2dQ8's lanes, epilogue and returned range.
func denseQ8(dst []float32, src []byte, srcZP int32, srcUnsigned bool, w []int64, bias []float32, outScale float32, act graph.OpType, batch, inF, units int) float32 {
	rowL := (units + 1) / 2
	flip, off := quantFlip(srcUnsigned, srcZP)
	var lanes [qBlock / 2]int64
	var acc [qBlock]int32
	var amax float32
	for n := 0; n < batch; n++ {
		y := dst[n*units : (n+1)*units]
		for u := 0; u < units; u += qBlock {
			sums := acc[:min(qBlock, units-u)]
			L := lanes[:(len(sums)+1)/2]
			clear(sums)
			x, wi := src[n*inF:(n+1)*inF], u/2
			for len(x) > qPass {
				wi = q8Lanes(L, x[:qPass], flip, off, w, wi, rowL)
				x = x[qPass:]
				q8Flush(sums, L)
			}
			q8Lanes(L, x, flip, off, w, wi, rowL)
			q8Flush(sums, L)
			q8Epilogue(y[u:], sums, bias, u, outScale)
		}
		amax = q8Finish(y, act, amax)
	}
	return amax
}

// transposeConv2dF32 scatters each input pixel through the kernel into the
// stride-upsampled output (dst must be pre-zeroed by the caller). Kernel
// layout [kh, kw, outC, inC]; top/left origin (k-stride)/2 centres the
// kernel so output spatial dims are exactly in*stride.
func transposeConv2dF32(dst, src, w, bias []float32, in, out graph.Shape, a graph.Attrs) {
	inH, inW, inC := in[1], in[2], in[3]
	outH, outW, outC := out[1], out[2], out[3]
	padT := (a.KernelH - a.StrideH) / 2
	padL := (a.KernelW - a.StrideW) / 2
	if padT < 0 {
		padT = 0
	}
	if padL < 0 {
		padL = 0
	}
	for n := 0; n < in[0]; n++ {
		srcN := src[n*inH*inW*inC:]
		dstN := dst[n*outH*outW*outC:]
		for ih := 0; ih < inH; ih++ {
			for iw := 0; iw < inW; iw++ {
				si := (ih*inW + iw) * inC
				for kh := 0; kh < a.KernelH; kh++ {
					oh := ih*a.StrideH + kh - padT
					if oh < 0 || oh >= outH {
						continue
					}
					for kw := 0; kw < a.KernelW; kw++ {
						ow := iw*a.StrideW + kw - padL
						if ow < 0 || ow >= outW {
							continue
						}
						do := (oh*outW + ow) * outC
						for oc := 0; oc < outC; oc++ {
							wi := ((kh*a.KernelW+kw)*outC + oc) * inC
							var acc float32
							for ic := 0; ic < inC; ic++ {
								acc += srcN[si+ic] * w[wi+ic]
							}
							dstN[do+oc] += acc
						}
					}
				}
			}
		}
		if bias != nil {
			for i := 0; i < outH*outW; i++ {
				for oc := 0; oc < outC; oc++ {
					dstN[i*outC+oc] += bias[oc]
				}
			}
		}
	}
}

// maxPoolF32 / avgPoolF32: window reductions. Average counts only in-bounds
// taps (TFLite's padding-excluded semantics), so SAME-padded borders are
// true means of their valid window.
func maxPoolF32(dst, src []float32, in, out graph.Shape, a graph.Attrs) {
	poolF32(dst, src, in, out, a, true)
}

func avgPoolF32(dst, src []float32, in, out graph.Shape, a graph.Attrs) {
	poolF32(dst, src, in, out, a, false)
}

func poolF32(dst, src []float32, in, out graph.Shape, a graph.Attrs, max bool) {
	inH, inW, c := in[1], in[2], in[3]
	outH, outW := out[1], out[2]
	padT, padL := padOrigin(a, inH, inW, outH, outW, a.KernelH, a.KernelW)
	for n := 0; n < in[0]; n++ {
		srcN := src[n*inH*inW*c:]
		dstN := dst[n*outH*outW*c:]
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				do := (oh*outW + ow) * c
				for ch := 0; ch < c; ch++ {
					best := float32(math.Inf(-1))
					var sum float32
					count := 0
					for kh := 0; kh < a.KernelH; kh++ {
						ih := oh*a.StrideH - padT + kh
						if ih < 0 || ih >= inH {
							continue
						}
						for kw := 0; kw < a.KernelW; kw++ {
							iw := ow*a.StrideW - padL + kw
							if iw < 0 || iw >= inW {
								continue
							}
							v := srcN[(ih*inW+iw)*c+ch]
							if v > best {
								best = v
							}
							sum += v
							count++
						}
					}
					if max {
						dstN[do+ch] = best
					} else if count > 0 {
						dstN[do+ch] = sum / float32(count)
					} else {
						dstN[do+ch] = 0
					}
				}
			}
		}
	}
}

func globalAvgPoolF32(dst, src []float32, in graph.Shape) {
	h, w, c := in[1], in[2], in[3]
	hw := h * w
	for n := 0; n < in[0]; n++ {
		srcN := src[n*hw*c:]
		dstN := dst[n*c:]
		for ch := 0; ch < c; ch++ {
			var sum float32
			for i := 0; i < hw; i++ {
				sum += srcN[i*c+ch]
			}
			dstN[ch] = sum / float32(hw)
		}
	}
}

// applyActivation runs a unary activation in place. channels is the last
// dimension (PRelu's per-channel alpha axis); alpha is nil for the default
// 0.25 slope.
func applyActivation(x []float32, op graph.OpType, alpha []float32, channels int) {
	switch op {
	case graph.OpReLU:
		for i, v := range x {
			if v < 0 {
				x[i] = 0
			}
		}
	case graph.OpReLU6:
		for i, v := range x {
			if v < 0 {
				x[i] = 0
			} else if v > 6 {
				x[i] = 6
			}
		}
	case graph.OpSigmoid, graph.OpLogistic:
		for i, v := range x {
			x[i] = float32(1 / (1 + math.Exp(-float64(v))))
		}
	case graph.OpTanh:
		for i, v := range x {
			x[i] = float32(math.Tanh(float64(v)))
		}
	case graph.OpHardSwish:
		for i, v := range x {
			r := v + 3
			if r < 0 {
				r = 0
			} else if r > 6 {
				r = 6
			}
			x[i] = v * r / 6
		}
	case graph.OpPRelu:
		if channels <= 0 {
			channels = 1
		}
		for i, v := range x {
			if v < 0 {
				a := float32(0.25)
				if len(alpha) == 1 {
					a = alpha[0]
				} else if len(alpha) > 0 {
					a = alpha[i%channels]
				}
				x[i] = v * a
			}
		}
	case graph.OpSoftmax:
		softmaxF32(x, channels)
	}
}

// softmaxF32 normalises each row of the trailing axis with the usual
// max-subtraction for stability.
func softmaxF32(x []float32, lastDim int) {
	if lastDim <= 0 || len(x)%lastDim != 0 {
		lastDim = len(x)
	}
	for r := 0; r+lastDim <= len(x); r += lastDim {
		row := x[r : r+lastDim]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for i, v := range row {
			e := math.Exp(float64(v - maxV))
			row[i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := range row {
			row[i] *= inv
		}
	}
}

// batchNormF32 applies the folded affine y = γ·x + β over the last axis
// (nil γ/β mean identity — graphs stripped by DetachWeights still run).
func batchNormF32(dst, src, gamma, beta []float32, channels int) {
	if channels <= 0 {
		channels = 1
	}
	for i, v := range src {
		c := i % channels
		g, b := float32(1), float32(0)
		if gamma != nil {
			g = gamma[c%len(gamma)]
		}
		if beta != nil {
			b = beta[c%len(beta)]
		}
		dst[i] = v*g + b
	}
}

// addF32 / mulF32 support three broadcast forms the corpus uses: full
// elementwise, per-channel (len(b) == last dim) and scalar.
func addF32(dst, x, y []float32) { binaryF32(dst, x, y, false) }
func mulF32(dst, x, y []float32) { binaryF32(dst, x, y, true) }

func binaryF32(dst, x, y []float32, mul bool) {
	switch {
	case len(y) == len(x):
		if mul {
			for i := range x {
				dst[i] = x[i] * y[i]
			}
		} else {
			for i := range x {
				dst[i] = x[i] + y[i]
			}
		}
	case len(y) == 1:
		if mul {
			for i := range x {
				dst[i] = x[i] * y[0]
			}
		} else {
			for i := range x {
				dst[i] = x[i] + y[0]
			}
		}
	default: // per-channel broadcast over the trailing axis
		c := len(y)
		if mul {
			for i := range x {
				dst[i] = x[i] * y[i%c]
			}
		} else {
			for i := range x {
				dst[i] = x[i] + y[i%c]
			}
		}
	}
}

// resizeF32 is bilinear/nearest spatial resampling with half-pixel source
// mapping.
func resizeF32(dst, src []float32, in, out graph.Shape, bilinear bool) {
	inH, inW, c := in[1], in[2], in[3]
	outH, outW := out[1], out[2]
	scaleH := float64(inH) / float64(outH)
	scaleW := float64(inW) / float64(outW)
	for n := 0; n < in[0]; n++ {
		srcN := src[n*inH*inW*c:]
		dstN := dst[n*outH*outW*c:]
		for oh := 0; oh < outH; oh++ {
			sy := (float64(oh)+0.5)*scaleH - 0.5
			for ow := 0; ow < outW; ow++ {
				sx := (float64(ow)+0.5)*scaleW - 0.5
				do := (oh*outW + ow) * c
				if !bilinear {
					ih := clampInt(int(math.Round(sy)), 0, inH-1)
					iw := clampInt(int(math.Round(sx)), 0, inW-1)
					copy(dstN[do:do+c], srcN[(ih*inW+iw)*c:])
					continue
				}
				y0 := clampInt(int(math.Floor(sy)), 0, inH-1)
				y1 := clampInt(y0+1, 0, inH-1)
				x0 := clampInt(int(math.Floor(sx)), 0, inW-1)
				x1 := clampInt(x0+1, 0, inW-1)
				fy := float32(clampF(sy-float64(y0), 0, 1))
				fx := float32(clampF(sx-float64(x0), 0, 1))
				for ch := 0; ch < c; ch++ {
					v00 := srcN[(y0*inW+x0)*c+ch]
					v01 := srcN[(y0*inW+x1)*c+ch]
					v10 := srcN[(y1*inW+x0)*c+ch]
					v11 := srcN[(y1*inW+x1)*c+ch]
					top := v00 + (v01-v00)*fx
					bot := v10 + (v11-v10)*fx
					dstN[do+ch] = top + (bot-top)*fy
				}
			}
		}
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// maxKernelRank is the largest rank meanF32 and sliceF32 take: their
// coordinate arrays are fixed-size so that they never allocate (Compile
// rejects a larger rank).
const maxKernelRank = 8

// meanF32 reduces src over the given axes into dst (already shaped by
// inference; dst length is the product of kept dims). Uses fixed-size
// coordinate buffers so reduction never allocates.
func meanF32(dst, src []float32, in graph.Shape, reduceAxes []int) {
	for i := range dst {
		dst[i] = 0
	}
	rank := len(in)
	var reduce [maxKernelRank]bool
	count := 1
	for _, ax := range reduceAxes {
		if ax < 0 {
			ax += rank
		}
		if ax >= 0 && ax < rank {
			if !reduce[ax] {
				count *= in[ax]
			}
			reduce[ax] = true
		}
	}
	// Strides of the kept dims inside dst.
	var outStride [maxKernelRank]int
	stride := 1
	for i := rank - 1; i >= 0; i-- {
		if !reduce[i] {
			outStride[i] = stride
			stride *= in[i]
		}
	}
	var coord [maxKernelRank]int
	for si := range src {
		oi := 0
		for i := 0; i < rank; i++ {
			if !reduce[i] {
				oi += coord[i] * outStride[i]
			}
		}
		dst[oi] += src[si]
		for i := rank - 1; i >= 0; i-- {
			coord[i]++
			if coord[i] < in[i] {
				break
			}
			coord[i] = 0
		}
	}
	inv := float32(1) / float32(count)
	for i := range dst {
		dst[i] *= inv
	}
}

// concatF32 joins inputs along axis. outerElems/axisElems describe each
// source's decomposition: copy runs of axisLen·inner elements.
func concatF32(dst []float32, srcs [][]float32, shapes []graph.Shape, axis int) {
	rank := len(shapes[0])
	if axis < 0 {
		axis += rank
	}
	outer := 1
	for i := 0; i < axis; i++ {
		outer *= shapes[0][i]
	}
	inner := 1
	for i := axis + 1; i < rank; i++ {
		inner *= shapes[0][i]
	}
	rowLen := 0
	for _, s := range shapes {
		rowLen += s[axis] * inner
	}
	for o := 0; o < outer; o++ {
		off := o * rowLen
		for si, src := range srcs {
			run := shapes[si][axis] * inner
			copy(dst[off:off+run], src[o*run:])
			off += run
		}
	}
}

// sliceF32 copies the Begin/Size window (Size -1 = to the end).
func sliceF32(dst, src []float32, in, out graph.Shape, begin []int) {
	rank := len(in)
	var b [maxKernelRank]int
	for i := 0; i < rank && i < len(begin); i++ {
		b[i] = begin[i]
	}
	var inStride [maxKernelRank]int
	stride := 1
	for i := rank - 1; i >= 0; i-- {
		inStride[i] = stride
		stride *= in[i]
	}
	inner := out[rank-1]
	var coord [maxKernelRank]int
	n := len(dst) / inner
	for r := 0; r < n; r++ {
		si := 0
		for i := 0; i < rank; i++ {
			si += (coord[i] + b[i]) * inStride[i]
		}
		copy(dst[r*inner:(r+1)*inner], src[si:si+inner])
		for i := rank - 2; i >= 0; i-- {
			coord[i]++
			if coord[i] < out[i] {
				break
			}
			coord[i] = 0
		}
	}
}

// padF32 zero-pads per the shapes.go contract: rank 4/3 pad axes 1 and 2 by
// PadH/PadW; rank 2 pads axis 1 by PadW.
func padF32(dst, src []float32, in, out graph.Shape, a graph.Attrs) {
	for i := range dst {
		dst[i] = 0
	}
	switch len(in) {
	case 4:
		h, w, c := in[1], in[2], in[3]
		ow := out[2]
		for n := 0; n < in[0]; n++ {
			for ih := 0; ih < h; ih++ {
				srcRow := src[((n*h+ih)*w)*c:]
				dstRow := dst[((n*out[1]+ih+a.PadH)*ow+a.PadW)*c:]
				copy(dstRow[:w*c], srcRow[:w*c])
			}
		}
	case 3:
		t, f := in[1], in[2]
		of := out[2]
		for n := 0; n < in[0]; n++ {
			for it := 0; it < t; it++ {
				copy(dst[((n*out[1]+it+a.PadH)*of + a.PadW):][:f], src[(n*t+it)*f:][:f])
			}
		}
	case 2:
		f := in[1]
		for n := 0; n < in[0]; n++ {
			copy(dst[n*out[1]+a.PadW:][:f], src[n*f:][:f])
		}
	default:
		copy(dst, src)
	}
}

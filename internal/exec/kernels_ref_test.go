package exec

import "github.com/gaugenn/gaugenn/internal/nn/graph"

// Scalar MAC kernels: each output runs its own loop, summing its products
// in the order written out below, which is the order every production MAC
// kernel in kernels.go must keep. TestKernelsMatchScalarOracle compares
// the two bit for bit.

// conv2dF32Ref is the direct (non-im2col) convolution. One fused loop nest:
// for every output element, accumulate kernel × input-window products.
func conv2dF32Ref(dst, src, w, bias []float32, in, out graph.Shape, a graph.Attrs) {
	inH, inW, inC := in[1], in[2], in[3]
	outH, outW, outC := out[1], out[2], out[3]
	dil := dilationOf(a)
	effKH, effKW := (a.KernelH-1)*dil+1, (a.KernelW-1)*dil+1
	padT, padL := padOrigin(a, inH, inW, outH, outW, effKH, effKW)
	for n := 0; n < in[0]; n++ {
		srcN := src[n*inH*inW*inC:]
		dstN := dst[n*outH*outW*outC:]
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				do := (oh*outW + ow) * outC
				for oc := 0; oc < outC; oc++ {
					var acc float32
					for kh := 0; kh < a.KernelH; kh++ {
						ih := oh*a.StrideH - padT + kh*dil
						if ih < 0 || ih >= inH {
							continue
						}
						for kw := 0; kw < a.KernelW; kw++ {
							iw := ow*a.StrideW - padL + kw*dil
							if iw < 0 || iw >= inW {
								continue
							}
							si := (ih*inW + iw) * inC
							wi := ((kh*a.KernelW+kw)*inC)*outC + oc
							for ic := 0; ic < inC; ic++ {
								acc += srcN[si+ic] * w[wi+ic*outC]
							}
						}
					}
					if bias != nil {
						acc += bias[oc]
					}
					dstN[do+oc] = acc
				}
			}
		}
	}
}

// conv2dW8Ref is the hybrid variant: float activations against the graph's
// raw int8 weight bytes (read in place, never copied), rescaled by the
// per-tensor weight scale in the epilogue.
func conv2dW8Ref(dst, src []float32, w []byte, bias []float32, wScale float32, in, out graph.Shape, a graph.Attrs) {
	inH, inW, inC := in[1], in[2], in[3]
	outH, outW, outC := out[1], out[2], out[3]
	dil := dilationOf(a)
	effKH, effKW := (a.KernelH-1)*dil+1, (a.KernelW-1)*dil+1
	padT, padL := padOrigin(a, inH, inW, outH, outW, effKH, effKW)
	for n := 0; n < in[0]; n++ {
		srcN := src[n*inH*inW*inC:]
		dstN := dst[n*outH*outW*outC:]
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				do := (oh*outW + ow) * outC
				for oc := 0; oc < outC; oc++ {
					var acc float32
					for kh := 0; kh < a.KernelH; kh++ {
						ih := oh*a.StrideH - padT + kh*dil
						if ih < 0 || ih >= inH {
							continue
						}
						for kw := 0; kw < a.KernelW; kw++ {
							iw := ow*a.StrideW - padL + kw*dil
							if iw < 0 || iw >= inW {
								continue
							}
							si := (ih*inW + iw) * inC
							wi := ((kh*a.KernelW+kw)*inC)*outC + oc
							for ic := 0; ic < inC; ic++ {
								acc += srcN[si+ic] * float32(int8(w[wi+ic*outC]))
							}
						}
					}
					acc *= wScale
					if bias != nil {
						acc += bias[oc]
					}
					dstN[do+oc] = acc
				}
			}
		}
	}
}

// conv2dQ8Ref is the full int8 path: integer MAC over quantized activations
// and raw int8 weight bytes, with a float epilogue
// real = acc · inScale · wScale + bias staged into dst (caller-provided
// float scratch) for dynamic requantization.
func conv2dQ8Ref(dst []float32, src []byte, srcZP int32, srcUnsigned bool, w []byte, bias []float32, outScale float32, in, out graph.Shape, a graph.Attrs) {
	inH, inW, inC := in[1], in[2], in[3]
	outH, outW, outC := out[1], out[2], out[3]
	dil := dilationOf(a)
	effKH, effKW := (a.KernelH-1)*dil+1, (a.KernelW-1)*dil+1
	padT, padL := padOrigin(a, inH, inW, outH, outW, effKH, effKW)
	for n := 0; n < in[0]; n++ {
		srcN := src[n*inH*inW*inC:]
		dstN := dst[n*outH*outW*outC:]
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				do := (oh*outW + ow) * outC
				for oc := 0; oc < outC; oc++ {
					var acc int32
					for kh := 0; kh < a.KernelH; kh++ {
						ih := oh*a.StrideH - padT + kh*dil
						if ih < 0 || ih >= inH {
							continue
						}
						for kw := 0; kw < a.KernelW; kw++ {
							iw := ow*a.StrideW - padL + kw*dil
							if iw < 0 || iw >= inW {
								continue
							}
							si := (ih*inW + iw) * inC
							wi := ((kh*a.KernelW+kw)*inC)*outC + oc
							for ic := 0; ic < inC; ic++ {
								acc += quantVal(srcN[si+ic], srcUnsigned, srcZP) * int32(int8(w[wi+ic*outC]))
							}
						}
					}
					r := float32(acc) * outScale
					if bias != nil {
						r += bias[oc]
					}
					dstN[do+oc] = r
				}
			}
		}
	}
}

// quantVal reads one quantized activation byte as a zero-point-corrected
// signed value.
func quantVal(b byte, unsigned bool, zp int32) int32 {
	if unsigned {
		return int32(b) - zp
	}
	return int32(int8(b)) - zp
}

// dwConvF32Ref is depthwise convolution: each input channel convolved with its
// own kernel column; output channel c*mult+m.
func dwConvF32Ref(dst, src, w, bias []float32, in, out graph.Shape, a graph.Attrs) {
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
			for ow := 0; ow < outW; ow++ {
				do := (oh*outW + ow) * outC
				for c := 0; c < inC; c++ {
					for m := 0; m < mult; m++ {
						var acc float32
						for kh := 0; kh < a.KernelH; kh++ {
							ih := oh*a.StrideH - padT + kh*dil
							if ih < 0 || ih >= inH {
								continue
							}
							for kw := 0; kw < a.KernelW; kw++ {
								iw := ow*a.StrideW - padL + kw*dil
								if iw < 0 || iw >= inW {
									continue
								}
								acc += srcN[(ih*inW+iw)*inC+c] * w[((kh*a.KernelW+kw)*inC+c)*mult+m]
							}
						}
						oc := c*mult + m
						if bias != nil {
							acc += bias[oc]
						}
						dstN[do+oc] = acc
					}
				}
			}
		}
	}
}

// dwConvW8Ref is the hybrid depthwise variant (float activations, raw int8
// weights).
func dwConvW8Ref(dst, src []float32, w []byte, bias []float32, wScale float32, in, out graph.Shape, a graph.Attrs) {
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
			for ow := 0; ow < outW; ow++ {
				do := (oh*outW + ow) * outC
				for c := 0; c < inC; c++ {
					for m := 0; m < mult; m++ {
						var acc float32
						for kh := 0; kh < a.KernelH; kh++ {
							ih := oh*a.StrideH - padT + kh*dil
							if ih < 0 || ih >= inH {
								continue
							}
							for kw := 0; kw < a.KernelW; kw++ {
								iw := ow*a.StrideW - padL + kw*dil
								if iw < 0 || iw >= inW {
									continue
								}
								acc += srcN[(ih*inW+iw)*inC+c] * float32(int8(w[((kh*a.KernelW+kw)*inC+c)*mult+m]))
							}
						}
						oc := c*mult + m
						acc *= wScale
						if bias != nil {
							acc += bias[oc]
						}
						dstN[do+oc] = acc
					}
				}
			}
		}
	}
}

// dwConvQ8Ref is the full int8 depthwise path (integer MAC, float epilogue
// into scratch).
func dwConvQ8Ref(dst []float32, src []byte, srcZP int32, srcUnsigned bool, w []byte, bias []float32, outScale float32, in, out graph.Shape, a graph.Attrs) {
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
			for ow := 0; ow < outW; ow++ {
				do := (oh*outW + ow) * outC
				for c := 0; c < inC; c++ {
					for m := 0; m < mult; m++ {
						var acc int32
						for kh := 0; kh < a.KernelH; kh++ {
							ih := oh*a.StrideH - padT + kh*dil
							if ih < 0 || ih >= inH {
								continue
							}
							for kw := 0; kw < a.KernelW; kw++ {
								iw := ow*a.StrideW - padL + kw*dil
								if iw < 0 || iw >= inW {
									continue
								}
								acc += quantVal(srcN[(ih*inW+iw)*inC+c], srcUnsigned, srcZP) * int32(int8(w[((kh*a.KernelW+kw)*inC+c)*mult+m]))
							}
						}
						oc := c*mult + m
						r := float32(acc) * outScale
						if bias != nil {
							r += bias[oc]
						}
						dstN[do+oc] = r
					}
				}
			}
		}
	}
}

// denseF32Ref is the fully connected layer over flattened features.
func denseF32Ref(dst, src, w, bias []float32, batch, inF, units int) {
	for n := 0; n < batch; n++ {
		x := src[n*inF : (n+1)*inF]
		y := dst[n*units : (n+1)*units]
		for u := 0; u < units; u++ {
			var acc float32
			for f := 0; f < inF; f++ {
				acc += x[f] * w[f*units+u]
			}
			if bias != nil {
				acc += bias[u]
			}
			y[u] = acc
		}
	}
}

func denseW8Ref(dst, src []float32, w []byte, bias []float32, wScale float32, batch, inF, units int) {
	for n := 0; n < batch; n++ {
		x := src[n*inF : (n+1)*inF]
		y := dst[n*units : (n+1)*units]
		for u := 0; u < units; u++ {
			var acc float32
			for f := 0; f < inF; f++ {
				acc += x[f] * float32(int8(w[f*units+u]))
			}
			acc *= wScale
			if bias != nil {
				acc += bias[u]
			}
			y[u] = acc
		}
	}
}

func denseQ8Ref(dst []float32, src []byte, srcZP int32, srcUnsigned bool, w []byte, bias []float32, outScale float32, batch, inF, units int) {
	for n := 0; n < batch; n++ {
		x := src[n*inF : (n+1)*inF]
		y := dst[n*units : (n+1)*units]
		for u := 0; u < units; u++ {
			var acc int32
			for f := 0; f < inF; f++ {
				acc += quantVal(x[f], srcUnsigned, srcZP) * int32(int8(w[f*units+u]))
			}
			r := float32(acc) * outScale
			if bias != nil {
				r += bias[u]
			}
			y[u] = r
		}
	}
}

// maxAbsRef is the dynamic range by the sign-branch loop: the largest |v|,
// taken by negating negative values, so NaN is ignored and -0 counts as 0.
// The Q8 kernels' returned range and absMax must agree with it bit for
// bit.
func maxAbsRef(x []float32) float32 {
	var m float32
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// reluRef is ReLU by the sign branch: negative values become +0, while -0
// and NaN, which do not compare below 0, keep their bits. reluF32 must
// agree with it bit for bit.
func reluRef(x []float32) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}

// refTensor is one quantized input of elementwiseRef.
type refTensor struct {
	codes []byte
	dtype graph.DType
	scale float64
	zp    int32
}

// elementwiseRef is the int8/uint8 element-wise path before runOnCodes:
// every input dequantized in full, the fp32 op (add, reshape or an
// activation) and the fused activation over every element, and the result
// requantized at its dynamic range (scale = maxAbsRef/limit, 1 when that
// is 0; zero point 0, 128 for uint8). It returns the output's bytes, scale
// and zero point, which runOnCodes must reproduce exactly.
func elementwiseRef(op, fused graph.OpType, alpha []float32, channels int, ins []refTensor, outDT graph.DType) ([]byte, float64, int32) {
	views := make([][]float32, len(ins))
	for i, t := range ins {
		views[i] = make([]float32, len(t.codes))
		dequantize(views[i], t.codes, t.dtype, t.scale, t.zp)
	}
	dst := make([]float32, len(views[0]))
	switch op {
	case graph.OpAdd:
		addF32(dst, views[0], views[1])
	case graph.OpReshape:
		copy(dst, views[0])
	default:
		copy(dst, views[0])
		applyActivation(dst, op, alpha, channels)
	}
	if fused.Valid() {
		applyActivation(dst, fused, nil, channels)
	}
	scale := float64(maxAbsRef(dst)) / quantLimit(outDT)
	if scale == 0 {
		scale = 1
	}
	var zp int32
	if outDT == graph.UInt8 {
		zp = 128
	}
	out := make([]byte, len(dst))
	requantize(out, dst, outDT, scale, zp)
	return out, scale, zp
}

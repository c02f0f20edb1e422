package graph

import "fmt"

// InferShapes propagates tensor shapes from the graph inputs through every
// layer, returning a map from tensor name to its inferred Tensor. This is
// the "trace-based" forward pass of Section 4.7: gaugeNN feeds a random
// input of the declared dimensions and registers per-layer operations.
func (g *Graph) InferShapes() (map[string]Tensor, error) {
	env := make(map[string]Tensor, len(g.Inputs)+len(g.Layers))
	for _, in := range g.Inputs {
		env[in.Name] = in
	}
	for i := range g.Layers {
		l := &g.Layers[i]
		outs, err := inferLayer(l, env)
		if err != nil {
			return nil, fmt.Errorf("graph %s: layer %q (%s): %w", g.Name, l.Name, l.Op, err)
		}
		if len(outs) != len(l.Outputs) {
			return nil, fmt.Errorf("graph %s: layer %q produced %d tensors, declares %d",
				g.Name, l.Name, len(outs), len(l.Outputs))
		}
		for j, t := range outs {
			t.Name = l.Outputs[j]
			env[t.Name] = t
		}
	}
	return env, nil
}

func convSpatial(in, kernel, stride, pad, dilation int, same bool) (int, error) {
	if stride <= 0 {
		return 0, fmt.Errorf("stride must be positive, got %d", stride)
	}
	if same {
		return (in + stride - 1) / stride, nil
	}
	if dilation <= 0 {
		dilation = 1
	}
	// A dilated kernel spans (k-1)*d+1 input positions; SAME output size is
	// unaffected (padding absorbs the difference) but VALID shrinks by it.
	eff := (kernel-1)*dilation + 1
	out := (in+2*pad-eff)/stride + 1
	if out <= 0 {
		return 0, fmt.Errorf("kernel %d (dilation %d) with stride %d does not fit input %d (pad %d)", kernel, dilation, stride, in, pad)
	}
	return out, nil
}

func inferLayer(l *Layer, env map[string]Tensor) ([]Tensor, error) {
	ins := make([]Tensor, len(l.Inputs))
	for i, name := range l.Inputs {
		t, ok := env[name]
		if !ok {
			return nil, fmt.Errorf("undefined input tensor %q", name)
		}
		ins[i] = t
	}
	x := ins[0]
	a := l.Attrs

	switch l.Op {
	case OpConv2D, OpTransposeConv2D:
		if len(x.Shape) != 4 {
			return nil, fmt.Errorf("conv input must be rank 4, got %v", x.Shape)
		}
		if a.Filters <= 0 {
			return nil, fmt.Errorf("conv needs Filters > 0")
		}
		if l.Op == OpTransposeConv2D {
			// Transposed convolution upsamples by the stride.
			return []Tensor{{Shape: Shape{x.Shape[0], x.Shape[1] * a.StrideH, x.Shape[2] * a.StrideW, a.Filters}, DType: x.DType}}, nil
		}
		oh, err := convSpatial(x.Shape[1], a.KernelH, a.StrideH, a.PadH, a.Dilation, a.PadSame)
		if err != nil {
			return nil, err
		}
		ow, err := convSpatial(x.Shape[2], a.KernelW, a.StrideW, a.PadW, a.Dilation, a.PadSame)
		if err != nil {
			return nil, err
		}
		return []Tensor{{Shape: Shape{x.Shape[0], oh, ow, a.Filters}, DType: x.DType}}, nil

	case OpDepthwiseConv2D:
		if len(x.Shape) != 4 {
			return nil, fmt.Errorf("depthwise conv input must be rank 4, got %v", x.Shape)
		}
		mult := a.DepthMult
		if mult <= 0 {
			mult = 1
		}
		oh, err := convSpatial(x.Shape[1], a.KernelH, a.StrideH, a.PadH, a.Dilation, a.PadSame)
		if err != nil {
			return nil, err
		}
		ow, err := convSpatial(x.Shape[2], a.KernelW, a.StrideW, a.PadW, a.Dilation, a.PadSame)
		if err != nil {
			return nil, err
		}
		return []Tensor{{Shape: Shape{x.Shape[0], oh, ow, x.Shape[3] * mult}, DType: x.DType}}, nil

	case OpMaxPool, OpAvgPool:
		if len(x.Shape) != 4 {
			return nil, fmt.Errorf("pool input must be rank 4, got %v", x.Shape)
		}
		oh, err := convSpatial(x.Shape[1], a.KernelH, a.StrideH, a.PadH, 1, a.PadSame)
		if err != nil {
			return nil, err
		}
		ow, err := convSpatial(x.Shape[2], a.KernelW, a.StrideW, a.PadW, 1, a.PadSame)
		if err != nil {
			return nil, err
		}
		return []Tensor{{Shape: Shape{x.Shape[0], oh, ow, x.Shape[3]}, DType: x.DType}}, nil

	case OpGlobalAvgPool:
		if len(x.Shape) != 4 {
			return nil, fmt.Errorf("global pool input must be rank 4, got %v", x.Shape)
		}
		return []Tensor{{Shape: Shape{x.Shape[0], 1, 1, x.Shape[3]}, DType: x.DType}}, nil

	case OpDense:
		if a.Units <= 0 {
			return nil, fmt.Errorf("dense needs Units > 0")
		}
		batch := 1
		if len(x.Shape) >= 1 {
			batch = x.Shape[0]
		}
		return []Tensor{{Shape: Shape{batch, a.Units}, DType: x.DType}}, nil

	case OpReLU, OpReLU6, OpSigmoid, OpTanh, OpSoftmax, OpHardSwish, OpPRelu,
		OpLogistic, OpBatchNorm:
		return []Tensor{{Shape: x.Shape.Clone(), DType: x.DType}}, nil

	case OpAdd, OpMul:
		if len(ins) >= 2 && !ins[0].Shape.Equal(ins[1].Shape) {
			// Broadcasting a per-channel bias is permitted.
			if ins[1].Shape.Elements() != int64(lastDim(ins[0].Shape)) && ins[1].Shape.Elements() != 1 {
				return nil, fmt.Errorf("elementwise shape mismatch %v vs %v", ins[0].Shape, ins[1].Shape)
			}
		}
		return []Tensor{{Shape: x.Shape.Clone(), DType: x.DType}}, nil

	case OpConcat:
		if len(ins) < 2 {
			return nil, fmt.Errorf("concat needs at least 2 inputs")
		}
		axis := a.Axis
		if axis < 0 {
			axis += len(x.Shape)
		}
		if axis < 0 || axis >= len(x.Shape) {
			return nil, fmt.Errorf("concat axis %d out of range for rank %d", a.Axis, len(x.Shape))
		}
		out := x.Shape.Clone()
		for _, t := range ins[1:] {
			if len(t.Shape) != len(x.Shape) {
				return nil, fmt.Errorf("concat rank mismatch %v vs %v", x.Shape, t.Shape)
			}
			out[axis] += t.Shape[axis]
		}
		return []Tensor{{Shape: out, DType: x.DType}}, nil

	case OpReshape:
		if len(a.NewShape) == 0 {
			return nil, fmt.Errorf("reshape needs NewShape")
		}
		out := make(Shape, len(a.NewShape))
		known := int64(1)
		wildcard := -1
		for i, d := range a.NewShape {
			out[i] = d
			if d == -1 {
				if wildcard >= 0 {
					return nil, fmt.Errorf("reshape allows one wildcard dim")
				}
				wildcard = i
			} else {
				known *= int64(d)
			}
		}
		total := x.Shape.Elements()
		if wildcard >= 0 {
			if known == 0 || total%known != 0 {
				return nil, fmt.Errorf("reshape %v incompatible with %d elements", a.NewShape, total)
			}
			out[wildcard] = int(total / known)
		} else if known != total {
			return nil, fmt.Errorf("reshape %v has %d elements, input has %d", a.NewShape, known, total)
		}
		return []Tensor{{Shape: out, DType: x.DType}}, nil

	case OpSlice, OpStridedSlice:
		if len(a.Size) != len(x.Shape) {
			return nil, fmt.Errorf("slice size rank %d mismatches input rank %d", len(a.Size), len(x.Shape))
		}
		out := make(Shape, len(a.Size))
		for i, d := range a.Size {
			begin := 0
			if i < len(a.Begin) {
				begin = a.Begin[i]
			}
			if d == -1 {
				out[i] = x.Shape[i] - begin
			} else {
				out[i] = d
			}
			if out[i] <= 0 || out[i] > x.Shape[i] {
				return nil, fmt.Errorf("slice dim %d size %d invalid for input %d", i, out[i], x.Shape[i])
			}
			// The window [begin, begin+size) must lie inside the input:
			// the kernel copies it without clamping.
			if begin < 0 || begin+out[i] > x.Shape[i] {
				return nil, fmt.Errorf("slice dim %d window [%d, %d) runs outside input %d", i, begin, begin+out[i], x.Shape[i])
			}
		}
		return []Tensor{{Shape: out, DType: x.DType}}, nil

	case OpResizeBilinear, OpResizeNearest:
		if len(x.Shape) != 4 {
			return nil, fmt.Errorf("resize input must be rank 4, got %v", x.Shape)
		}
		if a.TargetH <= 0 || a.TargetW <= 0 {
			return nil, fmt.Errorf("resize needs positive target dims")
		}
		return []Tensor{{Shape: Shape{x.Shape[0], a.TargetH, a.TargetW, x.Shape[3]}, DType: x.DType}}, nil

	case OpQuantize, OpDequantize:
		dt := x.DType
		if a.OutDTypeSet {
			dt = a.OutDType
		} else if l.Op == OpQuantize {
			dt = Int8
		} else {
			dt = Float32
		}
		return []Tensor{{Shape: x.Shape.Clone(), DType: dt}}, nil

	case OpPad:
		// Symmetric zero padding. Rank 4 (NHWC) pads the spatial axes; rank 3
		// ([batch,time,feat]) pads time with PadH and features with PadW;
		// rank 2 ([batch,feat]) pads features with PadW. Other ranks only
		// pass through when no padding is requested — a silent pass-through
		// for a real pad would undersize every downstream arena buffer.
		out := x.Shape.Clone()
		switch len(out) {
		case 4:
			out[1] += 2 * a.PadH
			out[2] += 2 * a.PadW
		case 3:
			out[1] += 2 * a.PadH
			out[2] += 2 * a.PadW
		case 2:
			if a.PadH != 0 {
				return nil, fmt.Errorf("pad: rank-2 input %v has no height axis for PadH=%d", x.Shape, a.PadH)
			}
			out[1] += 2 * a.PadW
		default:
			if a.PadH != 0 || a.PadW != 0 {
				return nil, fmt.Errorf("pad: rank-%d input %v not supported (PadH=%d PadW=%d)", len(out), x.Shape, a.PadH, a.PadW)
			}
		}
		return []Tensor{{Shape: out, DType: x.DType}}, nil

	case OpMean:
		out := Shape{}
		drop := make(map[int]bool, len(a.ReduceAxes))
		for _, ax := range a.ReduceAxes {
			if ax < 0 {
				ax += len(x.Shape)
			}
			drop[ax] = true
		}
		for i, d := range x.Shape {
			if drop[i] {
				if a.KeepDims {
					out = append(out, 1)
				}
				continue
			}
			out = append(out, d)
		}
		if len(out) == 0 {
			out = Shape{1}
		}
		return []Tensor{{Shape: out, DType: x.DType}}, nil

	case OpLSTM, OpGRU:
		if a.Units <= 0 {
			return nil, fmt.Errorf("recurrent layer needs Units > 0")
		}
		if len(x.Shape) != 3 {
			return nil, fmt.Errorf("recurrent input must be rank 3 [batch,time,feat], got %v", x.Shape)
		}
		return []Tensor{{Shape: Shape{x.Shape[0], x.Shape[1], a.Units}, DType: x.DType}}, nil

	case OpEmbedding:
		if a.Units <= 0 || a.VocabSize <= 0 {
			return nil, fmt.Errorf("embedding needs Units and VocabSize")
		}
		out := x.Shape.Clone()
		out = append(out, a.Units)
		return []Tensor{{Shape: out, DType: Float32}}, nil

	default:
		return nil, fmt.Errorf("shape inference not implemented for op %s", l.Op)
	}
}

func lastDim(s Shape) int {
	if len(s) == 0 {
		return 1
	}
	return s[len(s)-1]
}

package graph

import "testing"

// TestInferLayerShapes is table-driven coverage for every operator the
// internal/exec interpreter can run: each case is one layer applied to
// known input shapes, checked against the exact output dims the exec arena
// planner will size buffers from.
func TestInferLayerShapes(t *testing.T) {
	cases := []struct {
		name    string
		op      OpType
		ins     []Tensor
		attrs   Attrs
		want    Shape
		wantErr bool
	}{
		{name: "conv same", op: OpConv2D,
			ins:   []Tensor{{Shape: Shape{1, 32, 32, 3}}},
			attrs: Attrs{KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadSame: true, Filters: 8},
			want:  Shape{1, 16, 16, 8}},
		{name: "conv valid", op: OpConv2D,
			ins:   []Tensor{{Shape: Shape{1, 32, 32, 3}}},
			attrs: Attrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, Filters: 8},
			want:  Shape{1, 30, 30, 8}},
		{name: "conv valid dilated", op: OpConv2D,
			ins:   []Tensor{{Shape: Shape{1, 32, 32, 3}}},
			attrs: Attrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, Dilation: 2, Filters: 8},
			// Effective kernel (3-1)*2+1 = 5 → 32-5+1 = 28.
			want: Shape{1, 28, 28, 8}},
		{name: "conv explicit pad", op: OpConv2D,
			ins:   []Tensor{{Shape: Shape{1, 30, 30, 3}}},
			attrs: Attrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Filters: 4},
			want:  Shape{1, 30, 30, 4}},
		{name: "conv kernel too large", op: OpConv2D,
			ins:     []Tensor{{Shape: Shape{1, 4, 4, 3}}},
			attrs:   Attrs{KernelH: 9, KernelW: 9, StrideH: 1, StrideW: 1, Filters: 2},
			wantErr: true},
		{name: "transpose conv", op: OpTransposeConv2D,
			ins:   []Tensor{{Shape: Shape{1, 16, 16, 8}}},
			attrs: Attrs{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2, Filters: 4},
			want:  Shape{1, 32, 32, 4}},
		{name: "depthwise", op: OpDepthwiseConv2D,
			ins:   []Tensor{{Shape: Shape{1, 16, 16, 8}}},
			attrs: Attrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadSame: true},
			want:  Shape{1, 16, 16, 8}},
		{name: "depthwise mult dilated", op: OpDepthwiseConv2D,
			ins:   []Tensor{{Shape: Shape{1, 16, 16, 8}}},
			attrs: Attrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, Dilation: 3, DepthMult: 2},
			// Effective kernel 7 → 16-7+1 = 10; channels 8×2.
			want: Shape{1, 10, 10, 16}},
		{name: "max pool", op: OpMaxPool,
			ins:   []Tensor{{Shape: Shape{1, 16, 16, 8}}},
			attrs: Attrs{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2},
			want:  Shape{1, 8, 8, 8}},
		{name: "avg pool same", op: OpAvgPool,
			ins:   []Tensor{{Shape: Shape{1, 15, 15, 4}}},
			attrs: Attrs{KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadSame: true},
			want:  Shape{1, 8, 8, 4}},
		{name: "global avg pool", op: OpGlobalAvgPool,
			ins:  []Tensor{{Shape: Shape{1, 7, 7, 320}}},
			want: Shape{1, 1, 1, 320}},
		{name: "dense", op: OpDense,
			ins:   []Tensor{{Shape: Shape{2, 128}}},
			attrs: Attrs{Units: 10},
			want:  Shape{2, 10}},
		{name: "relu", op: OpReLU, ins: []Tensor{{Shape: Shape{1, 8, 8, 4}}}, want: Shape{1, 8, 8, 4}},
		{name: "relu6", op: OpReLU6, ins: []Tensor{{Shape: Shape{1, 8}}}, want: Shape{1, 8}},
		{name: "sigmoid", op: OpSigmoid, ins: []Tensor{{Shape: Shape{1, 8}}}, want: Shape{1, 8}},
		{name: "logistic", op: OpLogistic, ins: []Tensor{{Shape: Shape{1, 8}}}, want: Shape{1, 8}},
		{name: "tanh", op: OpTanh, ins: []Tensor{{Shape: Shape{1, 8}}}, want: Shape{1, 8}},
		{name: "softmax", op: OpSoftmax, ins: []Tensor{{Shape: Shape{1, 10}}}, want: Shape{1, 10}},
		{name: "hard swish", op: OpHardSwish, ins: []Tensor{{Shape: Shape{1, 8, 8, 4}}}, want: Shape{1, 8, 8, 4}},
		{name: "prelu", op: OpPRelu, ins: []Tensor{{Shape: Shape{1, 8, 8, 4}}}, want: Shape{1, 8, 8, 4}},
		{name: "batch norm", op: OpBatchNorm, ins: []Tensor{{Shape: Shape{1, 8, 8, 4}}}, want: Shape{1, 8, 8, 4}},
		{name: "add", op: OpAdd,
			ins:  []Tensor{{Shape: Shape{1, 8, 8, 4}}, {Shape: Shape{1, 8, 8, 4}}},
			want: Shape{1, 8, 8, 4}},
		{name: "add channel broadcast", op: OpAdd,
			ins:  []Tensor{{Shape: Shape{1, 8, 8, 4}}, {Shape: Shape{4}}},
			want: Shape{1, 8, 8, 4}},
		{name: "add shape mismatch", op: OpAdd,
			ins:     []Tensor{{Shape: Shape{1, 8, 8, 4}}, {Shape: Shape{1, 8, 8, 3}}},
			wantErr: true},
		{name: "mul", op: OpMul,
			ins:  []Tensor{{Shape: Shape{1, 16}}, {Shape: Shape{1, 16}}},
			want: Shape{1, 16}},
		{name: "concat", op: OpConcat,
			ins:   []Tensor{{Shape: Shape{1, 4, 4, 8}}, {Shape: Shape{1, 4, 4, 16}}},
			attrs: Attrs{Axis: -1},
			want:  Shape{1, 4, 4, 24}},
		{name: "reshape", op: OpReshape,
			ins:   []Tensor{{Shape: Shape{1, 4, 4, 8}}},
			attrs: Attrs{NewShape: []int{1, -1}},
			want:  Shape{1, 128}},
		{name: "slice", op: OpSlice,
			ins:   []Tensor{{Shape: Shape{1, 10, 10, 4}}},
			attrs: Attrs{Begin: []int{0, 2, 2, 0}, Size: []int{1, 6, 6, -1}},
			want:  Shape{1, 6, 6, 4}},
		{name: "strided slice", op: OpStridedSlice,
			ins:   []Tensor{{Shape: Shape{1, 8, 8, 4}}},
			attrs: Attrs{Size: []int{1, 4, 4, 4}},
			want:  Shape{1, 4, 4, 4}},
		{name: "slice window past the input end", op: OpSlice,
			ins:     []Tensor{{Shape: Shape{2, 10}}},
			attrs:   Attrs{Begin: []int{0, 5}, Size: []int{1, 8}},
			wantErr: true},
		{name: "slice negative begin", op: OpSlice,
			ins:     []Tensor{{Shape: Shape{2, 10}}},
			attrs:   Attrs{Begin: []int{0, -3}, Size: []int{1, 8}},
			wantErr: true},
		{name: "slice window ending at the input end", op: OpSlice,
			ins:   []Tensor{{Shape: Shape{2, 10}}},
			attrs: Attrs{Begin: []int{1, 2}, Size: []int{1, 8}},
			want:  Shape{1, 8}},
		{name: "resize bilinear", op: OpResizeBilinear,
			ins:   []Tensor{{Shape: Shape{1, 8, 8, 4}}},
			attrs: Attrs{TargetH: 16, TargetW: 16},
			want:  Shape{1, 16, 16, 4}},
		{name: "resize nearest", op: OpResizeNearest,
			ins:   []Tensor{{Shape: Shape{1, 16, 16, 4}}},
			attrs: Attrs{TargetH: 8, TargetW: 8},
			want:  Shape{1, 8, 8, 4}},
		{name: "quantize", op: OpQuantize,
			ins:  []Tensor{{Shape: Shape{1, 8, 8, 4}, DType: Float32}},
			want: Shape{1, 8, 8, 4}},
		{name: "dequantize", op: OpDequantize,
			ins:  []Tensor{{Shape: Shape{1, 8, 8, 4}, DType: Int8}},
			want: Shape{1, 8, 8, 4}},
		{name: "pad nhwc", op: OpPad,
			ins:   []Tensor{{Shape: Shape{1, 8, 8, 4}}},
			attrs: Attrs{PadH: 1, PadW: 2},
			want:  Shape{1, 10, 12, 4}},
		{name: "pad rank3", op: OpPad,
			ins:   []Tensor{{Shape: Shape{1, 16, 8}}},
			attrs: Attrs{PadH: 2, PadW: 1},
			want:  Shape{1, 20, 10}},
		{name: "pad rank2 features", op: OpPad,
			ins:   []Tensor{{Shape: Shape{1, 16}}},
			attrs: Attrs{PadW: 3},
			want:  Shape{1, 22}},
		{name: "pad rank2 rejects PadH", op: OpPad,
			ins:     []Tensor{{Shape: Shape{1, 16}}},
			attrs:   Attrs{PadH: 1},
			wantErr: true},
		{name: "pad rank1 rejects padding", op: OpPad,
			ins:     []Tensor{{Shape: Shape{16}}},
			attrs:   Attrs{PadW: 1},
			wantErr: true},
		{name: "pad zero is identity", op: OpPad,
			ins:  []Tensor{{Shape: Shape{1, 8, 8, 4}}},
			want: Shape{1, 8, 8, 4}},
		{name: "mean spatial", op: OpMean,
			ins:   []Tensor{{Shape: Shape{1, 7, 7, 320}}},
			attrs: Attrs{ReduceAxes: []int{1, 2}},
			want:  Shape{1, 320}},
		{name: "mean keepdims", op: OpMean,
			ins:   []Tensor{{Shape: Shape{1, 7, 7, 320}}},
			attrs: Attrs{ReduceAxes: []int{1, 2}, KeepDims: true},
			want:  Shape{1, 1, 1, 320}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := map[string]Tensor{}
			l := &Layer{Name: "l", Op: tc.op, Outputs: []string{"out"}, Attrs: tc.attrs}
			for i, in := range tc.ins {
				in.Name = string(rune('a' + i))
				env[in.Name] = in
				l.Inputs = append(l.Inputs, in.Name)
			}
			outs, err := inferLayer(l, env)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("inferLayer = %v, want error", outs[0].Shape)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !outs[0].Shape.Equal(tc.want) {
				t.Fatalf("shape = %v, want %v", outs[0].Shape, tc.want)
			}
		})
	}
}

// TestConvSpatialDilation pins the dilation arithmetic convSpatial feeds
// both shape inference and the exec arena planner.
func TestConvSpatialDilation(t *testing.T) {
	cases := []struct {
		in, k, stride, pad, dil int
		same                    bool
		want                    int
		wantErr                 bool
	}{
		{in: 32, k: 3, stride: 1, dil: 1, want: 30},
		{in: 32, k: 3, stride: 1, dil: 2, want: 28},
		{in: 32, k: 3, stride: 2, dil: 2, want: 14},
		{in: 32, k: 3, stride: 1, dil: 0, want: 30}, // unset dilation = 1
		{in: 32, k: 3, stride: 2, dil: 1, same: true, want: 16},
		{in: 32, k: 3, stride: 2, dil: 4, same: true, want: 16}, // SAME ignores dilation
		{in: 4, k: 3, stride: 1, dil: 4, wantErr: true},         // effective kernel 9 > 4
	}
	for _, tc := range cases {
		got, err := convSpatial(tc.in, tc.k, tc.stride, tc.pad, tc.dil, tc.same)
		if tc.wantErr {
			if err == nil {
				t.Errorf("convSpatial(%+v) = %d, want error", tc, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("convSpatial(%+v): %v", tc, err)
			continue
		}
		if got != tc.want {
			t.Errorf("convSpatial(%+v) = %d, want %d", tc, got, tc.want)
		}
	}
}

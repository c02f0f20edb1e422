package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// Builder constructs a Graph layer by layer with automatically wired tensor
// names and deterministically generated weights. It is the workhorse behind
// internal/nn/zoo's architecture generators.
//
// Errors are sticky: the first failure is remembered and returned by
// Finish, so call chains stay linear.
type Builder struct {
	g   *Graph
	rng *rand.Rand
	env map[string]Tensor
	cur string
	seq int
	err error

	// Sparsity is the probability that a generated float32 weight is set to
	// exactly zero, used to model the near-zero weight population Section
	// 6.1 measures.
	Sparsity float64
	// WeightDType selects the element type of generated weights (Float32 by
	// default; Int8 for quantised model variants).
	WeightDType DType
	// LayerPrefix is prepended to every layer name (e.g. "cluster_" to
	// fabricate clustering-optimised models for negative-control tests).
	LayerPrefix string
}

// NewBuilder creates a Builder for a model with the given name. rng drives
// weight generation and must be non-nil for any layer that carries weights.
func NewBuilder(name string, rng *rand.Rand) *Builder {
	return &Builder{
		g:           &Graph{Name: name},
		rng:         rng,
		env:         make(map[string]Tensor),
		WeightDType: Float32,
	}
}

func (b *Builder) fail(format string, args ...any) *Builder {
	if b.err == nil {
		b.err = fmt.Errorf("builder %s: "+format, append([]any{b.g.Name}, args...)...)
	}
	return b
}

func (b *Builder) nextTensor() string {
	b.seq++
	return fmt.Sprintf("t%d", b.seq)
}

// Input declares a graph input and makes it the current tensor.
func (b *Builder) Input(name string, shape Shape, dt DType) *Builder {
	if b.err != nil {
		return b
	}
	t := Tensor{Name: name, Shape: shape.Clone(), DType: dt}
	b.g.Inputs = append(b.g.Inputs, t)
	b.env[name] = t
	b.cur = name
	return b
}

// Current returns the name of the tensor the next layer will consume.
func (b *Builder) Current() string { return b.cur }

// CurrentShape returns the inferred shape of the current tensor.
func (b *Builder) CurrentShape() Shape { return b.env[b.cur].Shape }

// SetCurrent rewires the builder to continue from a previously produced
// tensor (for branches).
func (b *Builder) SetCurrent(tensor string) *Builder {
	if b.err != nil {
		return b
	}
	if _, ok := b.env[tensor]; !ok {
		return b.fail("SetCurrent: unknown tensor %q", tensor)
	}
	b.cur = tensor
	return b
}

// addLayer appends a layer consuming the given inputs, inferring its output
// shape immediately so later layers can size their weights.
func (b *Builder) addLayer(name string, op OpType, inputs []string, attrs Attrs, weights []Weight) *Builder {
	if b.err != nil {
		return b
	}
	out := b.nextTensor()
	l := Layer{
		Name:    b.LayerPrefix + name,
		Op:      op,
		Inputs:  inputs,
		Outputs: []string{out},
		Attrs:   attrs,
		Weights: weights,
	}
	outs, err := inferLayer(&l, b.env)
	if err != nil {
		return b.fail("layer %q (%s): %v", l.Name, op, err)
	}
	outs[0].Name = out
	b.env[out] = outs[0]
	b.g.Layers = append(b.g.Layers, l)
	b.cur = out
	return b
}

// randomWeight fabricates a weight tensor with He-style initialisation for
// floats or uniform int8 values, honouring the Sparsity knob.
func (b *Builder) randomWeight(name string, shape Shape, fanIn int) Weight {
	dt := b.WeightDType
	n := shape.Elements()
	data := make([]byte, n*int64(dt.Size()))
	if b.rng == nil {
		return Weight{Name: name, Shape: shape, DType: dt, Data: data}
	}
	switch dt {
	case Float32:
		std := math.Sqrt(2 / float64(max(1, fanIn)))
		for i := int64(0); i < n; i++ {
			var v float32
			if b.Sparsity <= 0 || b.rng.Float64() >= b.Sparsity {
				v = float32(b.rng.NormFloat64() * std)
			}
			binary.LittleEndian.PutUint32(data[i*4:], math.Float32bits(v))
		}
	case Int8, UInt8:
		for i := int64(0); i < n; i++ {
			if b.Sparsity > 0 && b.rng.Float64() < b.Sparsity {
				data[i] = 0
				continue
			}
			data[i] = byte(b.rng.Intn(256))
		}
	case Float16:
		for i := int64(0); i < n; i++ {
			// Stored as raw 16-bit patterns; numeric fidelity is not needed
			// for structural analysis.
			binary.LittleEndian.PutUint16(data[i*2:], uint16(b.rng.Intn(1<<16)))
		}
	default:
		for i := range data {
			data[i] = byte(b.rng.Intn(256))
		}
	}
	return Weight{Name: name, Shape: shape, DType: dt, Data: data}
}

// Conv adds a 2-D convolution with SAME padding, kernel k×k, the given
// stride and output filter count, plus a bias, optionally followed by a
// fused activation recorded in Attrs.
func (b *Builder) Conv(name string, filters, k, stride int, fused OpType) *Builder {
	if b.err != nil {
		return b
	}
	in := b.env[b.cur]
	if len(in.Shape) != 4 {
		return b.fail("Conv %q: input rank %d", name, len(in.Shape))
	}
	inC := in.Shape[3]
	w := b.randomWeight(name+"/kernel", Shape{k, k, inC, filters}, k*k*inC)
	bias := b.randomWeight(name+"/bias", Shape{filters}, filters)
	return b.addLayer(name, OpConv2D, []string{b.cur},
		Attrs{KernelH: k, KernelW: k, StrideH: stride, StrideW: stride, PadSame: true, Filters: filters, Fused: fused},
		[]Weight{w, bias})
}

// DWConv adds a depthwise convolution (channel multiplier 1) with SAME
// padding and a bias.
func (b *Builder) DWConv(name string, k, stride int, fused OpType) *Builder {
	if b.err != nil {
		return b
	}
	in := b.env[b.cur]
	if len(in.Shape) != 4 {
		return b.fail("DWConv %q: input rank %d", name, len(in.Shape))
	}
	c := in.Shape[3]
	w := b.randomWeight(name+"/depthwise", Shape{k, k, c, 1}, k*k)
	bias := b.randomWeight(name+"/bias", Shape{c}, c)
	return b.addLayer(name, OpDepthwiseConv2D, []string{b.cur},
		Attrs{KernelH: k, KernelW: k, StrideH: stride, StrideW: stride, PadSame: true, DepthMult: 1, Fused: fused},
		[]Weight{w, bias})
}

// Dense adds a fully connected layer with bias.
func (b *Builder) Dense(name string, units int, fused OpType) *Builder {
	if b.err != nil {
		return b
	}
	in := b.env[b.cur]
	inF := int(in.Shape.Elements())
	if len(in.Shape) >= 2 && in.Shape[0] > 0 {
		inF = int(in.Shape.Elements() / int64(in.Shape[0]))
	}
	w := b.randomWeight(name+"/kernel", Shape{inF, units}, inF)
	bias := b.randomWeight(name+"/bias", Shape{units}, units)
	return b.addLayer(name, OpDense, []string{b.cur},
		Attrs{Units: units, Fused: fused}, []Weight{w, bias})
}

// Activation appends a standalone activation layer of the given kind.
func (b *Builder) Activation(name string, op OpType) *Builder {
	switch op {
	case OpReLU, OpReLU6, OpSigmoid, OpTanh, OpSoftmax, OpHardSwish, OpPRelu, OpLogistic:
	default:
		return b.fail("Activation %q: %s is not an activation", name, op)
	}
	return b.addLayer(name, op, []string{b.cur}, Attrs{}, nil)
}

// BatchNorm appends a batch-normalisation layer with per-channel scale and
// shift parameters.
func (b *Builder) BatchNorm(name string) *Builder {
	if b.err != nil {
		return b
	}
	in := b.env[b.cur]
	c := lastDim(in.Shape)
	gamma := b.randomWeight(name+"/gamma", Shape{c}, c)
	beta := b.randomWeight(name+"/beta", Shape{c}, c)
	return b.addLayer(name, OpBatchNorm, []string{b.cur}, Attrs{}, []Weight{gamma, beta})
}

// MaxPool appends a k×k max pooling layer with the given stride (SAME).
func (b *Builder) MaxPool(name string, k, stride int) *Builder {
	return b.addLayer(name, OpMaxPool, []string{b.cur},
		Attrs{KernelH: k, KernelW: k, StrideH: stride, StrideW: stride, PadSame: true}, nil)
}

// GlobalAvgPool appends a global average pooling layer.
func (b *Builder) GlobalAvgPool(name string) *Builder {
	return b.addLayer(name, OpGlobalAvgPool, []string{b.cur}, Attrs{}, nil)
}

// Add sums the current tensor with another named tensor (residual link).
func (b *Builder) Add(name, other string) *Builder {
	if b.err != nil {
		return b
	}
	if _, ok := b.env[other]; !ok {
		return b.fail("Add %q: unknown tensor %q", name, other)
	}
	return b.addLayer(name, OpAdd, []string{b.cur, other}, Attrs{}, nil)
}

// Concat concatenates the current tensor with others along axis.
func (b *Builder) Concat(name string, axis int, others ...string) *Builder {
	if b.err != nil {
		return b
	}
	inputs := append([]string{b.cur}, others...)
	for _, o := range others {
		if _, ok := b.env[o]; !ok {
			return b.fail("Concat %q: unknown tensor %q", name, o)
		}
	}
	return b.addLayer(name, OpConcat, inputs, Attrs{Axis: axis}, nil)
}

// Reshape appends a reshape to newShape (one -1 wildcard allowed).
func (b *Builder) Reshape(name string, newShape []int) *Builder {
	return b.addLayer(name, OpReshape, []string{b.cur}, Attrs{NewShape: newShape}, nil)
}

// Resize appends a bilinear resize to (h, w).
func (b *Builder) Resize(name string, h, w int) *Builder {
	return b.addLayer(name, OpResizeBilinear, []string{b.cur}, Attrs{TargetH: h, TargetW: w}, nil)
}

// Softmax appends a softmax layer.
func (b *Builder) Softmax(name string) *Builder { return b.Activation(name, OpSoftmax) }

// Quantize appends a quantize layer producing int8 activations.
func (b *Builder) Quantize(name string, scale float64) *Builder {
	return b.addLayer(name, OpQuantize, []string{b.cur},
		Attrs{Scale: scale, OutDType: Int8, OutDTypeSet: true}, nil)
}

// Dequantize appends a dequantize layer restoring float32 activations.
func (b *Builder) Dequantize(name string, scale float64) *Builder {
	return b.addLayer(name, OpDequantize, []string{b.cur},
		Attrs{Scale: scale, OutDType: Float32, OutDTypeSet: true}, nil)
}

// LSTM appends an LSTM over the current [batch,time,features] tensor.
func (b *Builder) LSTM(name string, units int) *Builder {
	if b.err != nil {
		return b
	}
	in := b.env[b.cur]
	if len(in.Shape) != 3 {
		return b.fail("LSTM %q: input rank %d", name, len(in.Shape))
	}
	inF := in.Shape[2]
	w := b.randomWeight(name+"/kernel", Shape{inF + units, 4 * units}, inF+units)
	bias := b.randomWeight(name+"/bias", Shape{4 * units}, units)
	return b.addLayer(name, OpLSTM, []string{b.cur},
		Attrs{Units: units, TimeSteps: in.Shape[1]}, []Weight{w, bias})
}

// GRU appends a GRU over the current [batch,time,features] tensor.
func (b *Builder) GRU(name string, units int) *Builder {
	if b.err != nil {
		return b
	}
	in := b.env[b.cur]
	if len(in.Shape) != 3 {
		return b.fail("GRU %q: input rank %d", name, len(in.Shape))
	}
	inF := in.Shape[2]
	w := b.randomWeight(name+"/kernel", Shape{inF + units, 3 * units}, inF+units)
	bias := b.randomWeight(name+"/bias", Shape{3 * units}, units)
	return b.addLayer(name, OpGRU, []string{b.cur},
		Attrs{Units: units, TimeSteps: in.Shape[1]}, []Weight{w, bias})
}

// Embedding appends an embedding lookup of the current integer tensor.
func (b *Builder) Embedding(name string, vocab, units int) *Builder {
	if b.err != nil {
		return b
	}
	w := b.randomWeight(name+"/table", Shape{vocab, units}, units)
	return b.addLayer(name, OpEmbedding, []string{b.cur},
		Attrs{VocabSize: vocab, Units: units}, []Weight{w})
}

// Mean appends a mean reduction over the given axes.
func (b *Builder) Mean(name string, axes []int, keepDims bool) *Builder {
	return b.addLayer(name, OpMean, []string{b.cur}, Attrs{ReduceAxes: axes, KeepDims: keepDims}, nil)
}

// TransposeConv adds a transposed convolution (upsampling) layer.
func (b *Builder) TransposeConv(name string, filters, k, stride int) *Builder {
	if b.err != nil {
		return b
	}
	in := b.env[b.cur]
	if len(in.Shape) != 4 {
		return b.fail("TransposeConv %q: input rank %d", name, len(in.Shape))
	}
	inC := in.Shape[3]
	w := b.randomWeight(name+"/kernel", Shape{k, k, filters, inC}, k*k*inC)
	return b.addLayer(name, OpTransposeConv2D, []string{b.cur},
		Attrs{KernelH: k, KernelW: k, StrideH: stride, StrideW: stride, Filters: filters}, []Weight{w})
}

// Slice appends a slice of the current tensor (size -1 keeps the remainder
// of a dimension from its begin offset).
func (b *Builder) Slice(name string, begin, size []int) *Builder {
	return b.addLayer(name, OpSlice, []string{b.cur}, Attrs{Begin: begin, Size: size}, nil)
}

// Output declares the current tensor as a graph output.
func (b *Builder) Output() *Builder {
	if b.err != nil {
		return b
	}
	t, ok := b.env[b.cur]
	if !ok {
		return b.fail("Output: no current tensor")
	}
	b.g.Outputs = append(b.g.Outputs, t)
	return b
}

// Finish validates and returns the constructed graph.
func (b *Builder) Finish() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.g.Outputs) == 0 {
		b.Output()
	}
	if err := b.g.Validate(); err != nil {
		return nil, err
	}
	return b.g, nil
}

package graph

import (
	"fmt"
	"strings"
)

// Shape is a tensor shape. Image tensors use NHWC order; sequence tensors
// use [batch, time, features]; scalars are rank 0.
type Shape []int

// Elements returns the product of all dimensions (1 for rank 0). Unknown
// (-1) dimensions count as 1 so batch-agnostic models still profile.
func (s Shape) Elements() int64 {
	n := int64(1)
	for _, d := range s {
		if d > 0 {
			n *= int64(d)
		}
	}
	return n
}

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape {
	out := make(Shape, len(s))
	copy(out, s)
	return out
}

// Equal reports element-wise equality.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the shape as "1x224x224x3".
func (s Shape) String() string {
	if len(s) == 0 {
		return "scalar"
	}
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return strings.Join(parts, "x")
}

// Tensor is a named, typed activation flowing along a graph edge.
type Tensor struct {
	Name  string
	Shape Shape
	DType DType
}

// Bytes returns the storage footprint of one instance of the tensor.
func (t Tensor) Bytes() int64 { return t.Shape.Elements() * int64(t.DType.Size()) }

// Weight is a trainable parameter tensor attached to a layer. Data holds the
// raw little-endian element bytes; len(Data) == Shape.Elements()*DType.Size()
// for well-formed weights.
type Weight struct {
	Name  string
	Shape Shape
	DType DType
	Data  []byte
}

// Elements returns the number of parameters in the weight.
func (w Weight) Elements() int64 { return w.Shape.Elements() }

// Attrs carries the per-layer hyperparameters shape inference and FLOP
// accounting need. Fields irrelevant to a given op are zero.
type Attrs struct {
	KernelH, KernelW int
	StrideH, StrideW int
	// PadSame selects TensorFlow-style SAME padding; otherwise VALID with
	// explicit PadH/PadW applied symmetrically.
	PadSame      bool
	PadH, PadW   int
	Filters      int // output channels for conv-like ops
	Units        int // output features for dense / recurrent ops
	Axis         int // concat axis
	TargetH      int // resize target
	TargetW      int
	TimeSteps    int     // recurrent sequence length
	VocabSize    int     // embedding rows
	Fused        OpType  // fused activation (OpInvalid when none)
	Scale        float64 // quantisation scale
	ZeroPoint    int     // quantisation zero point
	Begin, Size  []int   // slice parameters
	NewShape     []int   // reshape target
	DepthMult    int     // depthwise channel multiplier (defaults to 1)
	KeepDims     bool    // mean/reduce
	ReduceAxes   []int   // mean/reduce axes
	OutDType     DType   // quantize/dequantize output element type
	OutDTypeSet  bool    // distinguishes OutDType==Float32 from unset
	Dilation     int     // conv dilation (defaults to 1)
	Groups       int     // grouped convolution (defaults to 1)
	SqueezeBatch bool    // reshape helper used by some text models
}

// Layer is one node of the model DAG.
type Layer struct {
	Name    string
	Op      OpType
	Inputs  []string // names of consumed tensors
	Outputs []string // names of produced tensors
	Attrs   Attrs
	Weights []Weight
}

// ParamCount returns the number of trainable parameters in the layer.
func (l *Layer) ParamCount() int64 {
	var n int64
	for _, w := range l.Weights {
		n += w.Elements()
	}
	return n
}

// WeightBytes returns the total weight storage of the layer.
func (l *Layer) WeightBytes() int64 {
	var n int64
	for _, w := range l.Weights {
		n += int64(len(w.Data))
	}
	return n
}

// Graph is a complete model: a topologically ordered list of layers
// connecting named input tensors to named outputs.
type Graph struct {
	// Name is the model's file-stem in the wild (e.g.
	// "hair_segmentation_mobilenet"); the paper mines it for task hints.
	Name    string
	Inputs  []Tensor
	Outputs []Tensor
	Layers  []Layer
}

// FindLayer returns the layer with the given name, or nil.
func (g *Graph) FindLayer(name string) *Layer {
	for i := range g.Layers {
		if g.Layers[i].Name == name {
			return &g.Layers[i]
		}
	}
	return nil
}

// ParamCount returns the total trainable parameter count of the model,
// the quantity reported on the x-axis of the paper's Figure 7 (right).
func (g *Graph) ParamCount() int64 {
	var n int64
	for i := range g.Layers {
		n += g.Layers[i].ParamCount()
	}
	return n
}

// DetachWeights copies every weight's Data into freshly owned memory (one
// contiguous allocation for the whole model). Decoders borrow weight bytes
// from the source buffer (the model file, or the APK it was read from);
// any holder that retains a graph beyond that buffer's lifetime — e.g. the
// analysis cache under keepGraphs — must detach it first, or the retained
// graph pins the entire APK in memory.
func (g *Graph) DetachWeights() {
	var total int
	for i := range g.Layers {
		for _, w := range g.Layers[i].Weights {
			total += len(w.Data)
		}
	}
	if total == 0 {
		return
	}
	buf := make([]byte, 0, total)
	for i := range g.Layers {
		ws := g.Layers[i].Weights
		for j := range ws {
			start := len(buf)
			buf = append(buf, ws[j].Data...)
			ws[j].Data = buf[start:len(buf):len(buf)]
		}
	}
}

// Validate checks structural invariants: non-empty inputs/outputs, unique
// tensor producer names, topological ordering (every consumed tensor was
// produced earlier or is a graph input), valid op codes, well-sized weight
// buffers and declared graph outputs actually produced.
func (g *Graph) Validate() error {
	if g.Name == "" {
		return fmt.Errorf("graph: model has no name")
	}
	if len(g.Inputs) == 0 {
		return fmt.Errorf("graph %s: no inputs", g.Name)
	}
	if len(g.Outputs) == 0 {
		return fmt.Errorf("graph %s: no outputs", g.Name)
	}
	if len(g.Layers) == 0 {
		return fmt.Errorf("graph %s: no layers", g.Name)
	}
	available := make(map[string]bool, len(g.Inputs)+len(g.Layers))
	for _, in := range g.Inputs {
		if in.Name == "" {
			return fmt.Errorf("graph %s: unnamed input", g.Name)
		}
		if available[in.Name] {
			return fmt.Errorf("graph %s: duplicate input %q", g.Name, in.Name)
		}
		if !in.DType.Valid() {
			return fmt.Errorf("graph %s: input %q has invalid dtype", g.Name, in.Name)
		}
		available[in.Name] = true
	}
	layerNames := make(map[string]bool, len(g.Layers))
	for i := range g.Layers {
		l := &g.Layers[i]
		if l.Name == "" {
			return fmt.Errorf("graph %s: layer %d unnamed", g.Name, i)
		}
		if layerNames[l.Name] {
			return fmt.Errorf("graph %s: duplicate layer name %q", g.Name, l.Name)
		}
		layerNames[l.Name] = true
		if !l.Op.Valid() {
			return fmt.Errorf("graph %s: layer %q has invalid op", g.Name, l.Name)
		}
		if len(l.Inputs) == 0 {
			return fmt.Errorf("graph %s: layer %q consumes nothing", g.Name, l.Name)
		}
		if len(l.Outputs) == 0 {
			return fmt.Errorf("graph %s: layer %q produces nothing", g.Name, l.Name)
		}
		for _, in := range l.Inputs {
			if !available[in] {
				return fmt.Errorf("graph %s: layer %q consumes undefined tensor %q (not topologically ordered?)", g.Name, l.Name, in)
			}
		}
		for _, out := range l.Outputs {
			if available[out] {
				return fmt.Errorf("graph %s: tensor %q produced twice", g.Name, out)
			}
			available[out] = true
		}
		for _, w := range l.Weights {
			want := w.Shape.Elements() * int64(w.DType.Size())
			if int64(len(w.Data)) != want {
				return fmt.Errorf("graph %s: layer %q weight %q has %d bytes, want %d",
					g.Name, l.Name, w.Name, len(w.Data), want)
			}
		}
	}
	for _, out := range g.Outputs {
		if !available[out.Name] {
			return fmt.Errorf("graph %s: declared output %q never produced", g.Name, out.Name)
		}
	}
	return nil
}

// Modality is the input modality gaugeNN groups models by (Figure 6).
type Modality uint8

// Input modalities of Section 4.4.
const (
	ModalityUnknown Modality = iota
	ModalityImage
	ModalityText
	ModalityAudio
	ModalitySensor
)

var modalityNames = [...]string{"unknown", "image", "text", "audio", "sensor"}

// String returns the lowercase modality name.
func (m Modality) String() string {
	if int(m) < len(modalityNames) {
		return modalityNames[m]
	}
	return "unknown"
}

// InferModality classifies the model's input modality from its first input
// tensor, following the heuristics Section 4.4 describes: the input name is
// inspected first (gaugeNN's manual characterisation keyed on naming), then
// the shape — rank-4 float tensors are images; integer-typed inputs are
// token sequences (text); rank-2/3 float tensors with a long time dimension
// are audio; short float vectors are sensor streams.
func (g *Graph) InferModality() Modality {
	if len(g.Inputs) == 0 {
		return ModalityUnknown
	}
	in := g.Inputs[0]
	name := strings.ToLower(in.Name)
	switch {
	case containsAny(name, "spectrogram", "audio", "waveform", "mel", "mfcc"):
		return ModalityAudio
	case containsAny(name, "token", "word_ids", "text"):
		return ModalityText
	case containsAny(name, "imu", "accel", "gyro", "sensor"):
		return ModalitySensor
	case containsAny(name, "image", "frame", "pixels"):
		return ModalityImage
	}
	switch in.DType {
	case Int32, Int64:
		return ModalityText
	}
	switch len(in.Shape) {
	case 4:
		c := in.Shape[3]
		if c == 1 || c == 3 || c == 4 {
			return ModalityImage
		}
		return ModalityImage
	case 3:
		if in.Shape[1] >= 128 { // long time axis: spectrogram frames
			return ModalityAudio
		}
		return ModalitySensor
	case 2:
		if in.Shape[1] >= 1024 { // raw waveform
			return ModalityAudio
		}
		if in.Shape[1] <= 16 {
			return ModalitySensor
		}
		return ModalityText
	default:
		return ModalityUnknown
	}
}

func containsAny(s string, subs ...string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

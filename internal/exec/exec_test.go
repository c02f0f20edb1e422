package exec

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/gaugenn/gaugenn/internal/errs"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
)

func buildModel(t testing.TB, spec zoo.Spec) *Program {
	t.Helper()
	g, err := zoo.Build(spec)
	if err != nil {
		t.Fatalf("build %v: %v", spec.Task, err)
	}
	p, err := Compile(g)
	if err != nil {
		t.Fatalf("compile %s: %v", g.Name, err)
	}
	return p
}

// TestCompileZooModels drives the interpreter across the executable zoo
// architectures in all three precision regimes and checks the plan
// invariants that arena sizing depends on.
func TestCompileZooModels(t *testing.T) {
	specs := []zoo.Spec{
		{Task: zoo.TaskImageClassification, Seed: 1},                        // MobileNetV2: conv, dwconv, add, pooling
		{Task: zoo.TaskImageClassification, Seed: 1, Quantized: true},       // PTQ int8 activations
		{Task: zoo.TaskImageClassification, Seed: 1, WeightQuantized: true}, // hybrid int8 weights
		{Task: zoo.TaskObjectDetection, Seed: 2},                            // FSSD: concat, reshape heads
		{Task: zoo.TaskFaceDetection, Seed: 3},                              // BlazeFace: pad, maxpool residuals
		{Task: zoo.TaskSemanticSegmentation, Seed: 4},                       // UNet: transpose conv, resize
		{Task: zoo.TaskStyleTransfer, Seed: 5},                              // encoder-decoder: resize, batch-norm
		{Task: zoo.TaskKeywordDetection, Seed: 6},                           // audio conv stack
		{Task: zoo.TaskCrashDetection, Seed: 7},                             // sensor MLP: dense, softmax
	}
	for _, spec := range specs {
		p := buildModel(t, spec)
		if p.ArenaBytes() <= 0 {
			t.Errorf("%s: arena not planned", p.Graph.Name)
		}
		inst := p.NewInstance()
		if lat := inst.Run(42); lat <= 0 {
			t.Errorf("%s: non-positive latency %v", p.Graph.Name, lat)
		}
		if len(inst.Stats()) == 0 {
			t.Errorf("%s: no roofline stats after a run", p.Graph.Name)
		}
	}
}

// TestRunDeterminism pins the interpreter's core property: the digest is a
// pure function of (program, seed) — across repeat runs of one instance,
// across fresh instances, and across separately compiled programs.
func TestRunDeterminism(t *testing.T) {
	spec := zoo.Spec{Task: zoo.TaskImageClassification, Seed: 11, Quantized: true}
	p1 := buildModel(t, spec)
	p2 := buildModel(t, spec)
	a, b, c := p1.NewInstance(), p1.NewInstance(), p2.NewInstance()
	for seed := uint64(0); seed < 3; seed++ {
		a.Run(seed)
		da := a.Digest()
		a.Run(seed)
		if a.Digest() != da {
			t.Fatalf("seed %d: repeat run changed digest", seed)
		}
		b.Run(seed)
		if b.Digest() != da {
			t.Fatalf("seed %d: fresh instance changed digest", seed)
		}
		c.Run(seed)
		if c.Digest() != da {
			t.Fatalf("seed %d: recompiled program changed digest", seed)
		}
	}
}

// TestPoolDeterministicAcrossWorkerCounts is the satellite property test:
// byte-identical batch results whatever the pool size.
func TestPoolDeterministicAcrossWorkerCounts(t *testing.T) {
	p := buildModel(t, zoo.Spec{Task: zoo.TaskFaceDetection, Seed: 21})
	seeds := make([]uint64, 16)
	for i := range seeds {
		seeds[i] = uint64(i * 7)
	}
	ref := NewPool(p, 1).Run(seeds)
	for _, workers := range []int{2, 3, 8} {
		got := NewPool(p, workers).Run(seeds)
		for i := range ref {
			if got[i].Seed != ref[i].Seed || got[i].Digest != ref[i].Digest {
				t.Fatalf("workers=%d: result %d diverged from single-worker run", workers, i)
			}
		}
	}
}

// TestInt8AgreesWithFP32 runs the same models in fp32 and the two
// quantized regimes and checks the documented end-to-end tolerance: cosine
// similarity of the final outputs ≥ 0.95 (docs/exec.md derives this from
// the per-op error budget of dynamic-range int8).
func TestInt8AgreesWithFP32(t *testing.T) {
	for _, task := range []zoo.Task{zoo.TaskImageClassification, zoo.TaskKeywordDetection} {
		ref := buildModel(t, zoo.Spec{Task: task, Seed: 31})
		for _, variant := range []zoo.Spec{
			{Task: task, Seed: 31, Quantized: true},
			{Task: task, Seed: 31, WeightQuantized: true},
		} {
			q := buildModel(t, variant)
			ri, qi := ref.NewInstance(), q.NewInstance()
			ri.Run(5)
			qi.Run(5)
			for _, name := range ref.Outputs() {
				a := ri.Output(name)
				// Quantized variants rename nothing: outputs match by
				// position (PTQ rewires through dequantize layers).
				b := qi.Output(q.Outputs()[indexOf(ref.Outputs(), name)])
				if cos := cosine(a, b); cos < 0.95 {
					t.Errorf("task %v quantized=%v output %s: cosine %.4f < 0.95",
						task, variant.Quantized, name, cos)
				}
			}
		}
	}
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return 0
}

func cosine(a, b []float32) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// TestValidateUnsupportedOps checks the typed rejection path: recurrent
// models fail with errs.ErrUnsupportedOps listing each offending operator,
// and Compile refuses them the same way.
func TestValidateUnsupportedOps(t *testing.T) {
	g, err := zoo.Build(zoo.Spec{Task: zoo.TaskAutoComplete, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	err = Validate(g)
	if !errors.Is(err, errs.ErrUnsupportedOps) {
		t.Fatalf("Validate = %v, want ErrUnsupportedOps", err)
	}
	var ue *errs.UnsupportedOpsError
	if !errors.As(err, &ue) {
		t.Fatalf("error is not *UnsupportedOpsError: %T", err)
	}
	found := map[string]bool{}
	for _, op := range ue.Ops {
		found[op] = true
	}
	if !found["lstm"] || !found["embedding"] {
		t.Errorf("Ops = %v, want lstm and embedding listed", ue.Ops)
	}
	if _, err := Compile(g); !errors.Is(err, errs.ErrUnsupportedOps) {
		t.Errorf("Compile = %v, want ErrUnsupportedOps", err)
	}

	if err := Validate(mustBuild(t, zoo.Spec{Task: zoo.TaskCrashDetection, Seed: 42})); err != nil {
		t.Errorf("executable model rejected: %v", err)
	}
}

func mustBuild(t *testing.T, spec zoo.Spec) *graph.Graph {
	t.Helper()
	g, err := zoo.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestAllocsPerRun gates the steady-state zero-alloc contract on the full
// hot path — input fill, every kernel, metric updates and the digest —
// for both the fp32 and quantized regimes (pre-resolved metric handles,
// no per-op lookups). The ceiling is 0 allocations per run. The keyword91
// rows are BenchmarkExec's four configurations, so this test is the one
// gate on that benchmark's allocs/op.
func TestAllocsPerRun(t *testing.T) {
	keyword := zoo.Spec{Task: zoo.TaskKeywordDetection, Seed: 91}
	keywordQ := zoo.Spec{Task: zoo.TaskKeywordDetection, Seed: 91, Quantized: true}
	for _, tc := range []struct {
		name  string
		spec  zoo.Spec
		batch int
	}{
		{"crash51/fp32/batch1", zoo.Spec{Task: zoo.TaskCrashDetection, Seed: 51}, 1},
		{"keyword52/int8/batch1", zoo.Spec{Task: zoo.TaskKeywordDetection, Seed: 52, Quantized: true}, 1},
		{"keyword91/fp32/batch1", keyword, 1},
		{"keyword91/fp32/batch8", keyword, 8},
		{"keyword91/int8/batch1", keywordQ, 1},
		{"keyword91/int8/batch8", keywordQ, 8},
	} {
		p := buildModel(t, tc.spec)
		inst := p.NewInstance()
		inst.Run(1) // warm: lazy runtime state settles outside the measurement
		seed := uint64(0)
		if n := testing.AllocsPerRun(100, func() {
			for s := 0; s < tc.batch; s++ {
				seed++
				inst.Run(seed)
			}
			_ = inst.Digest()
		}); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", tc.name, n)
		}
	}
}

// TestArenaReuse checks the allocator actually reuses buffers: the planned
// float arena of a deep sequential model must be far below the sum of all
// its activation tensors.
func TestArenaReuse(t *testing.T) {
	p := buildModel(t, zoo.Spec{Task: zoo.TaskImageClassification, Seed: 61})
	var sum int
	for _, ti := range p.tensors {
		if ti.isFloat {
			sum += ti.size
		}
	}
	if p.floatArena >= sum/2 {
		t.Errorf("float arena %d elements; want < half the %d-element tensor total (no reuse?)", p.floatArena, sum)
	}
}

// TestCompileRejectsMisSizedWeights covers graphs that pass graph.Validate
// (each weight's bytes match its own declared shape) but whose kernel or
// bias is too short for the layer: a 3×3 conv from 4 to 8 channels and a
// dense layer from 16 to 8 features, each with one weight declared at half
// size, and a depthwise and a transpose conv with half a kernel. Compile must reject them naming the layer, instead of letting Run
// index past the weight's end; full-size and weight-less (synthetic
// kernel) layers must still compile and run.
func TestCompileRejectsMisSizedWeights(t *testing.T) {
	f32 := func(name string, shape ...int) graph.Weight {
		s := graph.Shape(shape)
		return graph.Weight{Name: name, Shape: s, DType: graph.Float32, Data: make([]byte, s.Elements()*4)}
	}
	oneLayer := func(in graph.Shape, l graph.Layer) *graph.Graph {
		l.Inputs, l.Outputs = []string{"x"}, []string{"y"}
		return &graph.Graph{
			Name:    "misfit",
			Inputs:  []graph.Tensor{{Name: "x", Shape: in, DType: graph.Float32}},
			Outputs: []graph.Tensor{{Name: "y", DType: graph.Float32}},
			Layers:  []graph.Layer{l},
		}
	}
	conv := func(w ...graph.Weight) *graph.Graph {
		return oneLayer(graph.Shape{1, 6, 6, 4}, graph.Layer{Name: "conv1", Op: graph.OpConv2D, Weights: w,
			Attrs: graph.Attrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadSame: true, Filters: 8}})
	}
	dense := func(w ...graph.Weight) *graph.Graph {
		return oneLayer(graph.Shape{1, 16}, graph.Layer{Name: "fc1", Op: graph.OpDense, Weights: w,
			Attrs: graph.Attrs{Units: 8}})
	}
	depthwise := func(w ...graph.Weight) *graph.Graph {
		return oneLayer(graph.Shape{1, 6, 6, 4}, graph.Layer{Name: "dw1", Op: graph.OpDepthwiseConv2D, Weights: w,
			Attrs: graph.Attrs{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadSame: true}})
	}
	transpose := func(w ...graph.Weight) *graph.Graph {
		return oneLayer(graph.Shape{1, 3, 3, 4}, graph.Layer{Name: "up1", Op: graph.OpTransposeConv2D, Weights: w,
			Attrs: graph.Attrs{KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2, Filters: 8}})
	}
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		wantErr string // "" when the graph must compile and run
	}{
		{"conv/short-kernel", conv(f32("k", 3, 3, 2, 8), f32("b", 8)), `layer "conv1": kernel holds 144 values, the layer needs 288`},
		{"conv/short-bias", conv(f32("k", 3, 3, 4, 8), f32("b", 4)), `layer "conv1": bias holds 4 values, the layer has 8 output channels`},
		{"dense/short-kernel", dense(f32("k", 8, 8), f32("b", 8)), `layer "fc1": kernel holds 64 values, the layer needs 128`},
		{"dense/short-bias", dense(f32("k", 16, 8), f32("b", 4)), `layer "fc1": bias holds 4 values, the layer has 8 output channels`},
		{"depthwise/short-kernel", depthwise(f32("k", 3, 3, 2, 1)), `layer "dw1": kernel holds 18 values, the layer needs 36`},
		{"transpose/short-kernel", transpose(f32("k", 2, 2, 4, 4), f32("b", 8)), `layer "up1": kernel holds 64 values, the layer needs 128`},
		{"conv/full", conv(f32("k", 3, 3, 4, 8), f32("b", 8)), ""},
		{"dense/full", dense(f32("k", 16, 8), f32("b", 8)), ""},
		{"depthwise/full", depthwise(f32("k", 3, 3, 4, 1), f32("b", 4)), ""},
		{"transpose/full", transpose(f32("k", 2, 2, 8, 4), f32("b", 8)), ""},
		{"conv/synthetic", conv(), ""},
		{"dense/synthetic", dense(), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.g.Validate(); err != nil {
				t.Fatalf("graph.Validate = %v; the case needs a graph it accepts", err)
			}
			p, err := Compile(tc.g)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("Compile = %v, want success", err)
			case tc.wantErr == "":
				p.NewInstance().Run(1)
			case err == nil:
				t.Fatalf("Compile accepted the graph, want error %q", tc.wantErr)
			case !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("Compile = %v, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

// unrunnableLayers are one-layer graphs that graph.Validate and shape
// inference accept but that Run cannot execute as declared: most index
// outside their buffers, dequantize-f32 would write its result into the
// float arena at its int8 output's byte offset, and
// quantize-zero-point-200 declares a zero point no int8 code holds. Their
// encodings are also FuzzCompileRun seeds in testdata/fuzz.
func unrunnableLayers() map[string]*graph.Graph {
	oneLayer := func(in graph.Tensor, l graph.Layer) *graph.Graph {
		l.Name, l.Inputs, l.Outputs = "l", []string{"x"}, []string{"y"}
		in.Name = "x"
		return &graph.Graph{Name: "unrunnable", Inputs: []graph.Tensor{in}, Outputs: []graph.Tensor{{Name: "y"}}, Layers: []graph.Layer{l}}
	}
	f32 := func(shape ...int) graph.Tensor { return graph.Tensor{Shape: shape, DType: graph.Float32} }
	rank9 := graph.Shape{1, 1, 1, 1, 1, 1, 1, 1, 2}
	return map[string]*graph.Graph{
		"quantize-float32-output": oneLayer(f32(1, 8), graph.Layer{Op: graph.OpQuantize,
			Attrs: graph.Attrs{OutDType: graph.Float32, OutDTypeSet: true}}),
		"dequantize-int8-output": oneLayer(graph.Tensor{Shape: graph.Shape{1, 8}, DType: graph.Int8}, graph.Layer{Op: graph.OpDequantize,
			Attrs: graph.Attrs{OutDType: graph.Int8, OutDTypeSet: true}}),
		"quantize-zero-point-200": oneLayer(f32(1, 8), graph.Layer{Op: graph.OpQuantize,
			Attrs: graph.Attrs{Scale: 0.1, ZeroPoint: 200, OutDType: graph.Int8, OutDTypeSet: true}}),
		"pad-negative":   oneLayer(f32(1, 4, 4, 2), graph.Layer{Op: graph.OpPad, Attrs: graph.Attrs{PadH: -1, PadW: -1}}),
		"slice-rank0":    oneLayer(f32(), graph.Layer{Op: graph.OpSlice}),
		"slice-rank9":    oneLayer(f32(rank9...), graph.Layer{Op: graph.OpSlice, Attrs: graph.Attrs{Begin: make([]int, 9), Size: []int{1, 1, 1, 1, 1, 1, 1, 1, 1}}}),
		"mean-rank9":     oneLayer(f32(rank9...), graph.Layer{Op: graph.OpMean, Attrs: graph.Attrs{ReduceAxes: []int{8}}}),
		"resize-0x0-in":  oneLayer(f32(1, 0, 0, 1), graph.Layer{Op: graph.OpResizeBilinear, Attrs: graph.Attrs{TargetH: 2, TargetW: 2}}),
		"dequantize-f32": oneLayer(f32(1, 8), graph.Layer{Op: graph.OpDequantize, Attrs: graph.Attrs{OutDType: graph.Int8, OutDTypeSet: true}}),
	}
}

// TestCompileRejectsUnrunnableLayers requires Compile to refuse each of
// unrunnableLayers with an error naming the layer, instead of Run panicking
// or writing past the tensor it produces.
func TestCompileRejectsUnrunnableLayers(t *testing.T) {
	for name, g := range unrunnableLayers() {
		t.Run(name, func(t *testing.T) {
			if err := g.Validate(); err != nil {
				t.Fatalf("graph.Validate = %v; the case needs a graph it accepts", err)
			}
			if _, err := g.InferShapes(); err != nil {
				t.Fatalf("InferShapes = %v; the case needs shapes that infer", err)
			}
			if _, err := Compile(g); err == nil || !strings.Contains(err.Error(), `layer "l"`) {
				t.Fatalf("Compile = %v, want an error naming layer \"l\"", err)
			}
		})
	}
}

// TestCompileRefusesOversizedPlans holds Compile to maxPlanBytes on graphs
// that declare more memory than any model needs: a weightless dense layer
// of 2^40 units (a 2^40-value output and synthesized kernel), a dense layer
// over a [2^32, 2^32] input (2^64 elements, which graph.Shape.Elements
// wraps to 0), a weightless 2^15×2^15 conv kernel over a small input, and
// three 256 MB inputs concatenated, each tensor under the ceiling but all
// four live together in a 1.5 GB float arena. Each must fail with an error before
// anything that large is allocated; every zoo model compiles (the golden
// digest test compiles them all).
func TestCompileRefusesOversizedPlans(t *testing.T) {
	oneLayer := func(in graph.Shape, l graph.Layer) *graph.Graph {
		l.Name, l.Inputs, l.Outputs = "l", []string{"x"}, []string{"y"}
		return &graph.Graph{
			Name:    "oversized",
			Inputs:  []graph.Tensor{{Name: "x", Shape: in, DType: graph.Float32}},
			Outputs: []graph.Tensor{{Name: "y", DType: graph.Float32}},
			Layers:  []graph.Layer{l},
		}
	}
	concat := &graph.Graph{Name: "oversized", Outputs: []graph.Tensor{{Name: "y", DType: graph.Float32}}}
	cat := graph.Layer{Name: "l", Op: graph.OpConcat, Outputs: []string{"y"}, Attrs: graph.Attrs{Axis: 1}}
	for i := range 3 {
		name := fmt.Sprintf("x%d", i)
		concat.Inputs = append(concat.Inputs, graph.Tensor{Name: name, Shape: graph.Shape{1, 1 << 26}, DType: graph.Float32})
		cat.Inputs = append(cat.Inputs, name)
	}
	concat.Layers = []graph.Layer{cat}
	for _, tc := range []struct {
		name, wantErr string
		g             *graph.Graph
	}{
		{"dense-2^40-units", `tensor "y"`, oneLayer(graph.Shape{1, 8}, graph.Layer{Op: graph.OpDense, Attrs: graph.Attrs{Units: 1 << 40}})},
		{"dense-over-2^32x2^32", `tensor "x"`, oneLayer(graph.Shape{1 << 32, 1 << 32}, graph.Layer{Op: graph.OpDense, Attrs: graph.Attrs{Units: 4}})},
		{"conv-2^15x2^15-kernel", `layer "l": synthesized`, oneLayer(graph.Shape{1, 4, 4, 3}, graph.Layer{Op: graph.OpConv2D,
			Attrs: graph.Attrs{KernelH: 1 << 15, KernelW: 1 << 15, StrideH: 1, StrideW: 1, PadSame: true, Filters: 8}})},
		{"concat-1.5GB-arena", "float arena", concat},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.g.Validate(); err != nil {
				t.Fatalf("graph.Validate = %v; the case needs a graph it accepts", err)
			}
			if _, err := Compile(tc.g); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Compile = %v, want an error containing %q", err, tc.wantErr)
			}
		})
	}
}

package mlrt

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"github.com/gaugenn/gaugenn/internal/errs"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
	"github.com/gaugenn/gaugenn/internal/soc"
)

func dev(t *testing.T, model string) *soc.Device {
	t.Helper()
	d, err := soc.NewDevice(model)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func visionModel(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	g, err := zoo.Build(zoo.Spec{Task: zoo.TaskObjectDetection, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func textModel(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	g, err := zoo.Build(zoo.Spec{Task: zoo.TaskAutoComplete, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func infer(t *testing.T, device, backend string, g *graph.Graph, opts Options) Result {
	t.Helper()
	eng, err := NewEngine(dev(t, device), backend)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.Load(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Infer(nil); err != nil { // warmup
		t.Fatal(err)
	}
	r, err := sess.Infer(nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBackendsRegistry(t *testing.T) {
	names := Backends()
	want := []string{"cpu", "gpu", "nnapi", "snpe-cpu", "snpe-dsp", "snpe-gpu", "xnnpack"}
	if len(names) != len(want) {
		t.Fatalf("backends = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("backends = %v, want %v", names, want)
		}
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(dev(t, "Q845"), "warp-drive"); err == nil {
		t.Fatal("unknown backend must fail")
	}
	// SNPE requires Qualcomm: the A20's Exynos must refuse.
	if _, err := NewEngine(dev(t, "A20"), "snpe-dsp"); err == nil || !strings.Contains(err.Error(), "Qualcomm") {
		t.Fatalf("snpe on Exynos: %v", err)
	}
	// A20 has no DSP even for hypothetical paths; A70 (Qualcomm) has no DSP block.
	if _, err := NewEngine(dev(t, "A70"), "snpe-dsp"); err == nil {
		t.Fatal("A70 has no DSP block")
	}
	// GPU path works everywhere.
	if _, err := NewEngine(dev(t, "A20"), "gpu"); err != nil {
		t.Fatal(err)
	}
}

func TestWarmupEffect(t *testing.T) {
	eng, err := NewEngine(dev(t, "Q845"), "cpu")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.Load(visionModel(t, 1), Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sess.warm {
		t.Fatal("fresh session should be cold")
	}
	cold, err := sess.Infer(nil)
	if err != nil {
		t.Fatal(err)
	}
	warmRun, err := sess.Infer(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Latency < warmRun.Latency*3/2 {
		t.Fatalf("cold run (%v) should clearly exceed warm (%v)", cold.Latency, warmRun.Latency)
	}
}

func TestDeviceTierLatencyOrdering(t *testing.T) {
	g := visionModel(t, 2)
	lat := map[string]float64{}
	for _, m := range soc.AllDeviceModels() {
		r := infer(t, m, "cpu", g, Options{Threads: 4})
		lat[m] = r.Latency.Seconds()
	}
	if !(lat["A20"] > lat["A70"] && lat["A70"] > lat["S21"]) {
		t.Errorf("tier ordering: %v", lat)
	}
	if !(lat["Q845"] > lat["Q855"] && lat["Q855"] > lat["Q888"]) {
		t.Errorf("generation ordering: %v", lat)
	}
	// Paper ratios within generous bands.
	if r := lat["A20"] / lat["S21"]; r < 2.2 || r > 5.5 {
		t.Errorf("A20/S21 = %.2f, want ~3.4", r)
	}
	if r := lat["A70"] / lat["S21"]; r < 1.1 || r > 2.6 {
		t.Errorf("A70/S21 = %.2f, want ~1.51", r)
	}
}

func TestBackendSweepQ845(t *testing.T) {
	g := visionModel(t, 3)
	res := map[string]Result{}
	for _, b := range []string{"cpu", "xnnpack", "nnapi", "gpu", "snpe-cpu", "snpe-gpu", "snpe-dsp"} {
		res[b] = infer(t, "Q845", b, g, Options{Threads: 4})
	}
	cpu := res["cpu"].Latency.Seconds()
	// Fig 13: XNNPACK slightly faster; NNAPI clearly slower on Q845.
	if s := cpu / res["xnnpack"].Latency.Seconds(); s < 1.0 || s > 1.35 {
		t.Errorf("xnnpack speedup = %.2f, want ~1.03", s)
	}
	if s := cpu / res["nnapi"].Latency.Seconds(); s > 0.75 {
		t.Errorf("nnapi relative speed = %.2f, want ~0.49", s)
	}
	// Fig 14: DSP > GPU > CPU.
	if !(res["snpe-dsp"].Latency < res["snpe-gpu"].Latency && res["snpe-gpu"].Latency < res["cpu"].Latency) {
		t.Errorf("snpe ordering: dsp=%v gpu=%v cpu=%v", res["snpe-dsp"].Latency, res["snpe-gpu"].Latency, res["cpu"].Latency)
	}
	if s := cpu / res["snpe-dsp"].Latency.Seconds(); s < 3.0 || s > 9.0 {
		t.Errorf("snpe-dsp speedup = %.2f, want ~5.72", s)
	}
	if s := cpu / res["snpe-gpu"].Latency.Seconds(); s < 1.5 || s > 3.5 {
		t.Errorf("snpe-gpu speedup = %.2f, want ~2.28", s)
	}
	// SNPE GPU should beat the vanilla GPU delegate (~1.19x).
	if s := res["gpu"].Latency.Seconds() / res["snpe-gpu"].Latency.Seconds(); s < 1.0 || s > 1.5 {
		t.Errorf("snpe-gpu vs gpu = %.2f, want ~1.19", s)
	}
	// Energy: DSP is by far the most efficient.
	if res["snpe-dsp"].EnergyJ >= res["cpu"].EnergyJ/3 {
		t.Errorf("dsp energy %.4f should be far below cpu %.4f", res["snpe-dsp"].EnergyJ, res["cpu"].EnergyJ)
	}
}

func TestRecurrentFallback(t *testing.T) {
	g := textModel(t, 4)
	r := infer(t, "Q845", "gpu", g, Options{Threads: 4})
	if r.FallbackOps == 0 {
		t.Fatal("LSTM model on GPU should fall back for recurrent ops")
	}
	full := infer(t, "Q845", "cpu", g, Options{Threads: 4})
	if full.FallbackOps != 0 {
		t.Fatal("CPU backend never falls back")
	}
}

func TestBatchScaling(t *testing.T) {
	g := visionModel(t, 5)
	r1 := infer(t, "S21", "cpu", g, Options{Threads: 4, Batch: 1})
	r25 := infer(t, "S21", "cpu", g, Options{Threads: 4, Batch: 25})
	tput1 := 1.0 / r1.Latency.Seconds()
	tput25 := 25.0 / r25.Latency.Seconds()
	// Throughput must rise with batch ("throughput scales almost
	// linearly"), i.e. batched latency is sublinear in batch size.
	if tput25 <= tput1 {
		t.Fatalf("batch-25 throughput (%f) should exceed batch-1 (%f)", tput25, tput1)
	}
	if r25.Latency.Seconds() >= 25*r1.Latency.Seconds() {
		t.Fatal("batched latency should be sublinear")
	}
}

func TestBatchOOM(t *testing.T) {
	// A very large classifier at an absurd batch must exceed RAM limits.
	rng := rand.New(rand.NewSource(9))
	g, err := zoo.BuildArch(zoo.ArchMobileNetV2, "big", zoo.ArchOpts{Width: 2, Resolution: 224, Classes: 1000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(dev(t, "A20"), "cpu")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(g, Options{Batch: 4096}); err == nil {
		t.Fatal("absurd batch should OOM on a 4 GB device")
	}
}

func TestNNAPIDriverQualityMatters(t *testing.T) {
	g := visionModel(t, 6)
	q845 := infer(t, "Q845", "nnapi", g, Options{Threads: 4})
	q888 := infer(t, "Q888", "nnapi", g, Options{Threads: 4})
	cpu845 := infer(t, "Q845", "cpu", g, Options{Threads: 4})
	cpu888 := infer(t, "Q888", "cpu", g, Options{Threads: 4})
	rel845 := cpu845.Latency.Seconds() / q845.Latency.Seconds()
	rel888 := cpu888.Latency.Seconds() / q888.Latency.Seconds()
	if rel888 <= rel845 {
		t.Fatalf("better NNAPI driver (Q888 %.2f) should beat Q845's (%.2f)", rel888, rel845)
	}
}

func TestEfficiencyMetric(t *testing.T) {
	r := Result{FLOPs: 2e9, EnergyJ: 2}
	if eff := r.EfficiencyMFLOPsW(); eff != 1000 {
		t.Fatalf("efficiency = %v, want 1000 MFLOP/sW", eff)
	}
	if (Result{FLOPs: 1}).EfficiencyMFLOPsW() != 0 {
		t.Fatal("zero energy should yield 0")
	}
	if (Result{EnergyJ: 0.5}).EnergymJ() != 500 {
		t.Fatal("mJ conversion")
	}
}

func TestDSPQuantisedMovesFewerBytes(t *testing.T) {
	g := visionModel(t, 7)
	dspRes := infer(t, "Q888", "snpe-dsp", g, Options{Threads: 4})
	gpuRes := infer(t, "Q888", "snpe-gpu", g, Options{Threads: 4})
	// Same model: DSP (int8) should win on latency given its higher
	// throughput and quarter-size tensors.
	if dspRes.Latency >= gpuRes.Latency {
		t.Fatalf("dsp %v should beat gpu %v", dspRes.Latency, gpuRes.Latency)
	}
}

func TestMemoryAndUtilisationReported(t *testing.T) {
	g := visionModel(t, 8)
	r := infer(t, "Q845", "cpu", g, Options{Threads: 4})
	if r.PeakMemBytes <= 0 {
		t.Fatal("peak memory missing")
	}
	if r.CPUUtil <= 0 || r.CPUUtil > 1 {
		t.Fatalf("cpu util = %v, want (0,1]", r.CPUUtil)
	}
	// Batched sessions need proportionally more working memory.
	rb := infer(t, "Q845", "cpu", g, Options{Threads: 4, Batch: 8})
	if rb.PeakMemBytes <= r.PeakMemBytes {
		t.Fatalf("batch-8 peak %d should exceed batch-1 peak %d", rb.PeakMemBytes, r.PeakMemBytes)
	}
}

func TestSupportsAndSupportedBackends(t *testing.T) {
	a20, err := soc.NewDevice("A20")
	if err != nil {
		t.Fatal(err)
	}
	if err := Supports(a20, "cpu"); err != nil {
		t.Fatalf("A20 must run plain CPU: %v", err)
	}
	if Supports(a20, "snpe-dsp") == nil {
		t.Fatal("A20 (Exynos) must not support SNPE")
	}
	if Supports(a20, "no-such-backend") == nil {
		t.Fatal("unknown backend must error")
	}
	got := SupportedBackends(a20)
	want := []string{"cpu", "gpu", "nnapi", "xnnpack"}
	if len(got) != len(want) {
		t.Fatalf("A20 backends = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("A20 backends = %v, want %v", got, want)
		}
	}
	// The Q888 HDK covers the full sweep of Figures 13/14.
	q888, err := soc.NewDevice("Q888")
	if err != nil {
		t.Fatal(err)
	}
	if all := SupportedBackends(q888); len(all) != len(Backends()) {
		t.Fatalf("Q888 should support every backend, got %v", all)
	}
}

// TestExecutedSession covers the measured backend behind Options.Execute:
// real latency, a digest that is a pure function of (model, batch), typed
// rejection of graphs the interpreter cannot run, and roofline stats.
func TestExecutedSession(t *testing.T) {
	g, err := zoo.Build(zoo.Spec{Task: zoo.TaskKeywordDetection, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(dev(t, "Q888"), "cpu")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.Load(g, Options{Batch: 2, Execute: true})
	if err != nil {
		t.Fatal(err)
	}
	if sess.prog == nil {
		t.Fatal("session must report executed mode")
	}
	before := eng.Device.Clock.Now()
	r1, err := sess.Infer(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Latency <= 0 || r1.EnergyJ <= 0 {
		t.Fatalf("degenerate measured result: %+v", r1)
	}
	if r1.OutputDigest == "" {
		t.Fatal("executed result must carry an output digest")
	}
	if eng.Device.Clock.Now()-before != r1.Latency {
		t.Fatal("virtual clock must advance by the measured latency")
	}
	r2, err := sess.Infer(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.OutputDigest != r1.OutputDigest {
		t.Fatalf("digest drifted between runs: %s vs %s", r1.OutputDigest, r2.OutputDigest)
	}
	if len(sess.inst.Stats()) == 0 {
		t.Fatal("executed session must expose roofline stats")
	}

	// A fresh session over the same model and batch digests identically;
	// the simulated path carries no digest at all.
	fresh, err := eng.Load(g, Options{Batch: 2, Execute: true})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := fresh.Infer(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rf.OutputDigest != r1.OutputDigest {
		t.Fatal("digest must be a pure function of (model, batch)")
	}
	sim, err := eng.Load(g, Options{Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sim.Infer(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.OutputDigest != "" || sim.prog != nil {
		t.Fatal("simulated session must not digest or report executed")
	}

	// Recurrent graphs fail at Load with the typed error.
	if _, err := eng.Load(textModel(t, 6), Options{Execute: true}); !errors.Is(err, errs.ErrUnsupportedOps) {
		t.Fatalf("Load = %v, want ErrUnsupportedOps", err)
	}
	if _, err := eng.Load(textModel(t, 6), Options{}); err != nil {
		t.Fatalf("simulated mode must accept recurrent graphs: %v", err)
	}
}

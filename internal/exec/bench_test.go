package exec

import (
	"testing"

	"github.com/gaugenn/gaugenn/internal/nn/zoo"
)

// BenchmarkExec measures the interpreter's steady-state hot path — input
// fill, every kernel, metric updates, digest — in both precision regimes
// at batch 1 and batch 8. Recorded numbers live in BENCH_exec.json. Its
// allocs/op ceiling of 0 (the arena contract) is gated by TestAllocsPerRun,
// which runs these four configurations, so any per-run allocation sneaking
// into a kernel fails go test.
func BenchmarkExec(b *testing.B) {
	base := zoo.Spec{Task: zoo.TaskKeywordDetection, Seed: 91}
	quant := zoo.Spec{Task: zoo.TaskKeywordDetection, Seed: 91, Quantized: true}
	for _, bm := range []struct {
		name  string
		spec  zoo.Spec
		batch int
	}{
		{"fp32/batch1", base, 1},
		{"fp32/batch8", base, 8},
		{"int8/batch1", quant, 1},
		{"int8/batch8", quant, 8},
	} {
		b.Run(bm.name, func(b *testing.B) {
			p := buildModel(b, bm.spec)
			inst := p.NewInstance()
			inst.Run(0) // settle lazy runtime state outside the measurement
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s := 0; s < bm.batch; s++ {
					inst.Run(uint64(s))
				}
				_ = inst.Digest()
			}
		})
	}
}

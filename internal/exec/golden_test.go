package exec

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/gaugenn/gaugenn/internal/nn/zoo"
)

var updateDigests = flag.Bool("update", false, "record the golden digest file (testdata/digests.json)")

const digestsPath = "testdata/digests.json"

// goldenModelSeed and goldenInputSeeds fix the golden matrix: every
// executable zoo task in three precision regimes, one model seed, two
// input seeds.
const goldenModelSeed = 1

var goldenInputSeeds = []uint64{0, 1}

// goldenDigest is one recorded output digest.
type goldenDigest struct {
	Model     string `json:"model"`
	InputSeed uint64 `json:"input_seed"`
	Digest    string `json:"digest"`
}

// goldenDigests computes the golden matrix on this build: each executable
// zoo task × {fp32, PTQ int8, weight-only int8}, in AllTasks order.
func goldenDigests(t *testing.T) []goldenDigest {
	t.Helper()
	var out []goldenDigest
	for _, task := range zoo.AllTasks() {
		for _, v := range []struct {
			name string
			spec zoo.Spec
		}{
			{"fp32", zoo.Spec{Task: task, Seed: goldenModelSeed}},
			{"int8", zoo.Spec{Task: task, Seed: goldenModelSeed, Quantized: true}},
			{"w8", zoo.Spec{Task: task, Seed: goldenModelSeed, WeightQuantized: true}},
		} {
			g, err := zoo.Build(v.spec)
			if err != nil {
				t.Fatalf("build %v/%s: %v", task, v.name, err)
			}
			if Validate(g) != nil {
				continue // recurrent and lookup models: not executable
			}
			p, err := Compile(g)
			if err != nil {
				t.Fatalf("compile %v/%s: %v", task, v.name, err)
			}
			inst := p.NewInstance()
			for _, seed := range goldenInputSeeds {
				inst.Run(seed)
				d := inst.Digest()
				out = append(out, goldenDigest{
					Model:     fmt.Sprintf("%s/%s/seed%d", task, v.name, goldenModelSeed),
					InputSeed: seed,
					Digest:    hex.EncodeToString(d[:]),
				})
			}
		}
	}
	return out
}

// TestGoldenDigests pins the interpreter's outputs across commits: each
// digest must equal the one recorded in testdata/digests.json for this
// GOARCH. TestRunDeterminism only compares a build with itself; this test
// fails when a kernel change moves any output bit. The file is keyed by
// GOARCH because the compiler may fuse a multiply and an add into one
// rounding on some architectures (arm64 does), which changes fp32 bits
// there; architectures without a recorded entry skip. Record with
// go test -run TestGoldenDigests -update ./internal/exec/.
func TestGoldenDigests(t *testing.T) {
	recorded := map[string][]goldenDigest{}
	raw, err := os.ReadFile(digestsPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &recorded); err != nil {
			t.Fatalf("%s: %v", digestsPath, err)
		}
	case errors.Is(err, os.ErrNotExist) && *updateDigests:
	default:
		t.Fatalf("%v (record it with go test -run TestGoldenDigests -update)", err)
	}
	want, ok := recorded[runtime.GOARCH]
	if !ok && !*updateDigests {
		t.Skipf("%s records no digests for GOARCH %s: fp32 bits depend on whether the compiler fuses multiply-add there", digestsPath, runtime.GOARCH)
	}
	got := goldenDigests(t)
	if *updateDigests {
		recorded[runtime.GOARCH] = got
		out, err := json.MarshalIndent(recorded, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(digestsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%d digests computed, %d recorded for %s", len(got), len(want), runtime.GOARCH)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s input %d: digest %.16s, recorded %s input %d %.16s",
				got[i].Model, got[i].InputSeed, got[i].Digest, want[i].Model, want[i].InputSeed, want[i].Digest)
		}
	}
}

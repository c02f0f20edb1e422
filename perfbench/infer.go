package main

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"github.com/gaugenn/gaugenn/internal/exec"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
)

// inferMix is the fixed zoo mix: face detection (fp32 and post-training
// int8) is the latency reference; keyword and crash detection complete the
// mix. Model seeds are fixed so the architectures, and with them the work
// per inference, never change; the workload seed drives the inputs.
var inferMix = []struct {
	name string
	spec zoo.Spec
	// perRound is the model's single-instance inferences per round, sized
	// so the cheap models still get enough samples.
	perRound int
}{
	{"face_fp32", zoo.Spec{Task: zoo.TaskFaceDetection, Seed: 1}, 6},
	{"face_int8", zoo.Spec{Task: zoo.TaskFaceDetection, Seed: 1, Quantized: true}, 3},
	{"keyword_fp32", zoo.Spec{Task: zoo.TaskKeywordDetection, Seed: 1}, 20},
	{"keyword_int8", zoo.Spec{Task: zoo.TaskKeywordDetection, Seed: 1, Quantized: true}, 12},
	{"crash_fp32", zoo.Spec{Task: zoo.TaskCrashDetection, Seed: 1}, 400},
}

const (
	// inputSeeds is how many input seeds each model cycles through; every
	// pool batch runs all of them.
	inputSeeds = 8
	// inferSetups is how many times set-up builds, compiles and first runs
	// the mix; setup_s is the fastest pass, for the reason latencies are
	// (see runInfer): the passes' median spread 0.36 over five runs.
	inferSetups = 9
	maxRounds   = 16 // per measured second, bounds preallocated samples
)

type compiled struct {
	progs []*exec.Program
	insts []*exec.Instance
	// compile is the time exec.Compile took over the whole mix.
	compile time.Duration
}

// compileMix builds, compiles and instantiates the mix and runs each model
// once, so arenas are touched before timing.
func compileMix() (*compiled, error) {
	c := &compiled{}
	for _, m := range inferMix {
		g, err := zoo.Build(m.spec)
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", m.name, err)
		}
		t0 := time.Now()
		p, err := exec.Compile(g)
		c.compile += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", m.name, err)
		}
		in := p.NewInstance()
		in.Run(0)
		c.progs, c.insts = append(c.progs, p), append(c.insts, in)
	}
	return c, nil
}

// digestBook remembers the first output digest of every (model, input
// seed); every later inference of the pair, on the instance or the pool,
// must reproduce it.
type digestBook map[[2]uint64][32]byte

func (b digestBook) check(model int, name string, seed uint64, d [32]byte) error {
	k := [2]uint64{uint64(model), seed}
	first, ok := b[k]
	if !ok {
		b[k] = d
		return nil
	}
	if d != first {
		return fmt.Errorf("%s seed %d: digest %s, first was %s", name, seed,
			hex.EncodeToString(d[:8]), hex.EncodeToString(first[:8]))
	}
	return nil
}

func runInfer(e *env) (*result, error) {
	ck := &checker{}
	var c *compiled
	var setups, compiles []float64
	for i := 0; i < inferSetups; i++ {
		runtime.GC() // no pass pays for the previous one's garbage
		t0 := time.Now()
		var err error
		if c, err = compileMix(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		compiles = append(compiles, c.compile.Seconds())
	}
	r := rand.New(rand.NewSource(e.seed))
	seeds := make([]uint64, inputSeeds)
	for i := range seeds {
		seeds[i] = r.Uint64()
	}
	book := digestBook{}
	for m, in := range c.insts {
		for _, s := range seeds {
			in.Run(s)
			book.check(m, inferMix[m].name, s, in.Digest())
		}
	}
	pools := make([]*exec.Pool, len(c.progs))
	for m, p := range c.progs {
		pools[m] = exec.NewPool(p, runtime.NumCPU())
	}

	rounds := maxRounds * int(e.seconds/time.Second)
	lat := make([][]float64, len(inferMix))
	for m := range lat {
		lat[m] = make([]float64, 0, rounds*inferMix[m].perRound)
	}
	var tr *tracer
	if e.trace {
		tr = newTracer(maxSpans)
	}
	var singleN, poolN, nRounds int
	var singleAlloc, poolAlloc uint64
	var poolTime time.Duration
	bestPool := make([]time.Duration, len(pools)) // per model, its fastest inference in the pool
	var ms runtime.MemStats
	deadline := time.Now().Add(e.seconds)
	for round := 0; round < rounds && (round < 2 || time.Now().Before(deadline)); round++ {
		nRounds++
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		for m, in := range c.insts {
			name := inferMix[m].name
			for k := 0; k < inferMix[m].perRound; k++ {
				s := seeds[(round*inferMix[m].perRound+k)%len(seeds)]
				t0 := time.Now()
				in.Run(s)
				d := in.Digest()
				el := time.Since(t0)
				singleN++
				if ck.check(book.check(m, name, s, d)) {
					lat[m] = append(lat[m], float64(el.Nanoseconds())/1e6)
				}
				tr.root(name, int64(round), t0, el)
			}
		}
		runtime.ReadMemStats(&ms)
		singleAlloc += ms.TotalAlloc - a0

		a0 = ms.TotalAlloc
		for m, pl := range pools {
			t0 := time.Now()
			out := pl.Run(seeds)
			poolTime += time.Since(t0)
			for _, res := range out {
				poolN++
				if ck.check(book.check(m, inferMix[m].name, res.Seed, res.Digest)) &&
					(bestPool[m] == 0 || res.Latency < bestPool[m]) {
					bestPool[m] = res.Latency
				}
			}
		}
		runtime.ReadMemStats(&ms)
		poolAlloc += ms.TotalAlloc - a0
	}
	ck.attempt(singleN + poolN)

	res := &result{}
	res.setChecks(ck)
	// A co-tenant's load only ever adds time, and on a shared machine it
	// slows most inferences of a run while a few still run at full speed,
	// so the fastest sample is the one closest to the uncontended cost.
	// Latencies report each model's fastest inference. The pool rate is
	// what its nproc workers sustain when each runs the mix back to back
	// at the fastest per-inference latency the pool reported for each
	// model (RunResult.Latency, taken while the other workers run too).
	// Whole batches could not serve: a batch needs every worker
	// uncontended at once, and in contended runs none was, so their rate
	// spread 0.44 (interquartile range / median) over ten runs. Left out
	// is the pool's per-batch cost: a fresh instance per worker (0.2-0.3 ms
	// for the face models) and its goroutines.
	fp32 := quantile(lat[0], 0)
	var poolMix time.Duration // one inference of every model
	for _, d := range bestPool {
		poolMix += d
	}
	poolRate := float64(runtime.NumCPU()*len(pools)) / poolMix.Seconds()
	allocKB := float64(poolAlloc) / float64(poolN) / 1024
	allocB := float64(singleAlloc) / float64(singleN)
	if e.trace {
		res.add(tracedFigure[mLatency], fp32, "ms", len(lat[0]))
		res.add(tracedFigure[mThroughput], poolRate, "1/s", nRounds)
		res.add(tracedFigure[mAlloc], allocKB, "KB", poolN)
		var mixTime float64 // one single-instance pass over every model and seed, in ms
		for m, xs := range lat {
			res.add("exec."+inferMix[m].name+"_ms", quantile(xs, 0), "ms", len(xs))
			mixTime += mean(xs) * float64(len(seeds))
		}
		// The speedup compares whole-run rates: fastest samples of the pool
		// and the instance come from different moments, and their ratio can
		// exceed the worker count.
		singleRate := float64(len(inferMix)*len(seeds)) / (mixTime / 1e3)
		res.add("exec.pool_speedup", float64(poolN)/poolTime.Seconds()/singleRate, "ratio", 0)
		res.add("exec.compile_s", quantile(compiles, 0), "s", len(compiles))
		res.add("exec.alloc_b", allocB, "B", singleN)
		for m, prec := range []string{"fp32", "int8"} { // the face models lead the mix
			classes := map[string][]string{"fp32": fp32Classes, "int8": int8Classes}[prec]
			for _, st := range c.insts[m].Stats() {
				if !slices.Contains(classes, st.Class) {
					continue
				}
				n := int(c.insts[m].Runs())
				res.add("exec."+prec+"."+st.Class+"_ms", float64(st.Nanos)/1e6, "ms", n)
				if st.EstFLOPs > 0 {
					res.add("exec."+prec+"."+st.Class+"_gflops", st.GFLOPS, "GFLOP/s", n)
				}
			}
		}
		if err := tr.write(e.traceFile); err != nil {
			return nil, err
		}
		fmt.Fprintf(e.log, "perfbench: trace written to %s\n", e.traceFile)
		return res, nil
	}
	res.add(mSetup, quantile(setups, 0), "s", len(setups))
	res.add(mLatency, fp32, "ms", len(lat[0]))
	res.add(mThroughput, poolRate, "1/s", nRounds)
	res.add(mAlloc, allocKB, "KB", poolN)
	res.figure("setup_s", quantile(setups, 0), "s", len(setups))
	res.figure("setup_total_s", sum(setups), "s", len(setups))
	res.figure("infer_fp32_ms", median(lat[0]), "ms", len(lat[0]))
	res.figure("infer_int8_ms", median(lat[1]), "ms", len(lat[1]))
	res.figure("infer_per_s", float64(poolN)/poolTime.Seconds(), "1/s", poolN)
	res.figure("infer_alloc_b", allocB, "B", singleN)
	res.figure("fail_frac", ck.failFrac(), "ratio", 0)
	return res, nil
}

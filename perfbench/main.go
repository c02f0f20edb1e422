// Command perfbench is gaugeNN's end-to-end benchmark. One process runs
// one workload — a cold or a warm study, served reads, or measured
// inference — through the modules' public calls, checks every output, and
// prints each metric by name with its unit and sample count:
//
//	bash perfbench/run.sh --workload study-warm --seed 7 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload all --seed 7 --seconds 15
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones of BENCHMARK.json; with --trace 1 a separate traced
// run reports the per-layer ones, timed from outside the program, and
// writes its spans as a Chrome trace. --workload all runs every workload
// untraced and traced and prints the two side by side. The command exits
// non-zero when any output check fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// env is what one workload run gets: its seed, its measuring time, whether
// it is the traced run, and a scratch directory it owns.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string
	// traceFile receives the run's spans in Chrome trace-event form.
	traceFile string
	log       io.Writer
}

// freshDir returns a new empty directory under the run's scratch space.
func (e *env) freshDir() (string, error) {
	return os.MkdirTemp(e.dir, "store-")
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "workload seed; equal seeds generate equal inputs")
	seconds := fs.Int("seconds", runSeconds, "measured time of one run, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	workDir := fs.String("work-dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for stores and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := workloadByName(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	environment := currentEnvironment(*seed)
	var results []*result
	for _, w := range todo {
		modes := []bool{*trace == 1}
		if *name == "all" {
			modes = []bool{false, true}
		}
		for _, traced := range modes {
			e := &env{
				seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: traced,
				dir: scratch, log: stderr,
				traceFile: filepath.Join(*workDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed)),
			}
			fmt.Fprintf(stderr, "perfbench: %s seed=%d seconds=%d trace=%v\n", w.name, *seed, *seconds, traced)
			res, err := w.run(e)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
				return 1
			}
			res.Workload, res.Traced, res.Env = w.name, traced, environment
			res.fillCatalog()
			res.print(stdout)
			results = append(results, res)
		}
	}
	if *name == "all" {
		printOverhead(stdout, results)
	}
	line, failed := summaryLine(results, *name == "all")
	fmt.Fprintln(stdout, string(line))
	if failed > 0 {
		return 1
	}
	return 0
}

// environment is recorded with every result: a timing means little
// without the cores and toolchain that produced it.
type environment struct {
	NProc      int
	GOMAXPROCS int
	CPU        string
	Go         string
	Seed       int64
}

func currentEnvironment(seed int64) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Seed:       seed,
	}
}

// cpuModel reads the processor name Linux reports; elsewhere it falls back
// to the architecture.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// workload is one set of inputs the benchmark runs. Each layer the traced
// run measures has its home in exactly one workload.
type workload struct {
	name string
	why  string
	run  func(*env) (*result, error)
}

var workloads = []workload{
	{"study-cold", "core.Run into empty stores: the only workload where extract, graph decode, profiling and store writes do most of the work", runStudyCold},
	{"study-warm", "the same studies re-run on stores a cold run filled in set-up: decode and profile idle, packaging, hashing and store reads dominate", runStudyWarm},
	{"serve-read", "nproc keep-alive clients in a closed loop on the query API: memo hits, index probes and /tables renders, pipeline idle", runServeRead},
	{"infer", "exec on a fixed zoo mix compiled in set-up: kernels do all the work, one instance for latency, a pool of nproc for throughput", runInfer},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// On a shared machine a co-tenant's load slows throughput-bound code by up
// to 70 % in phases lasting seconds, while a latency-bound loop does not
// slow, so a run's median lands in whichever phase dominated it. Gated
// timings of served requests therefore take the run's fast end: the
// fastLatency quantile of one-second windows' median latencies and the
// fastRate quantile of their request rates. Medians and tails are printed
// beside them. Inference, slowed hardest, takes its fastest samples.
const (
	fastLatency = 0.10
	fastRate    = 0.90
)

// End-to-end metrics: every workload reports each of them for its own unit
// of work (a two-snapshot study, a served request, an inference), so one
// bound applies across workloads.
const (
	mSetup      = "setup_s"
	mLatency    = "latency_ms"
	mThroughput = "throughput_per_s"
	mAlloc      = "alloc_kb"
)

type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []e2eSpec{
	{mSetup, "s", "lower", 0.25},
	{mLatency, "ms", "lower", 0.25},
	{mThroughput, "1/s", "higher", 0.25},
	{mAlloc, "KB", "lower", 0.25},
}

// Per-layer breakdown keys shared by the workload code and the catalog.
var (
	serveRoutes  = []string{"model", "study", "studies", "diff", "tables", "healthz", "revalidate"}
	fp32Classes  = []string{"conv", "depth_conv", "activation", "math", "slice"}
	int8Classes  = []string{"conv", "depth_conv", "activation", "math", "quant", "slice"}
	tracedFigure = map[string]string{mLatency: "traced.latency_ms", mThroughput: "traced.throughput_per_s", mAlloc: "traced.alloc_kb"}
)

// perLayer is the traced run's catalog. A layer idle in a workload reports
// 0 there: the traced run of every workload emits the full set.
var perLayer = buildPerLayer()

func buildPerLayer() []layerSpec {
	var out []layerSpec
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, layerSpec{n, unit, better})
		}
	}
	add("s", "lower", "playstore.generate_s", "playstore.package_s")
	add("count", "lower", "playstore.apks")
	add("MB", "lower", "playstore.apk_mb")
	add("s", "lower", "extract.hash_s", "extract.extract_s")
	add("count", "lower", "extract.extracted")
	add("s", "lower", "extract.report_load_s")
	add("count", "higher", "extract.warm_reports")
	add("s", "lower", "extract.report_persist_s",
		"analysis.ingest_s", "analysis.merge_s", "analysis.encode_corpus_s")
	add("count", "lower", "analysis.decodes", "analysis.profiles")
	add("count", "higher", "analysis.warm_analysis_hits", "analysis.warm_payload_hits")
	add("count", "lower", "analysis.singleflight_waits")
	add("ratio", "lower", "analysis.decodes_per_payload")
	add("s", "lower", "store.read_s", "store.write_s")
	add("count", "lower", "store.reads", "store.writes")
	add("MB", "lower", "store.read_mb", "store.write_mb")
	add("count", "lower", "store.get_misses")
	add("s", "lower", "index.build_s", "core.snap2020_s", "core.snap2021_s")
	add("ratio", "higher", "core.parallelism")
	for _, r := range serveRoutes {
		add("ms", "lower", "serve."+r+".p50_ms", "serve."+r+".p99_ms")
		add("count", "higher", "serve."+r+".count")
		if r != "revalidate" { // revalidations are served by the other routes' handlers
			add("ms", "lower", "serve."+r+".handler_ms")
		}
	}
	add("ms", "lower", "serve.p99_ms", "serve.http_ms")
	add("count", "lower", "serve.corpus_decodes", "serve.index_builds", "serve.corpus_evictions",
		"serve.resident_corpora", "serve.resident_indexes")
	for _, m := range inferMix {
		add("ms", "lower", "exec."+m.name+"_ms")
	}
	for _, prec := range []struct {
		name    string
		classes []string
	}{{"fp32", fp32Classes}, {"int8", int8Classes}} {
		for _, c := range prec.classes {
			add("ms", "lower", "exec."+prec.name+"."+c+"_ms")
			if c != "slice" { // slicing does no arithmetic
				add("GFLOP/s", "higher", "exec."+prec.name+"."+c+"_gflops")
			}
		}
	}
	add("ratio", "higher", "exec.pool_speedup")
	add("s", "lower", "exec.compile_s")
	add("B", "lower", "exec.alloc_b")
	add("ms", "lower", tracedFigure[mLatency])
	add("1/s", "higher", tracedFigure[mThroughput])
	add("KB", "lower", tracedFigure[mAlloc])
	return out
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec is BENCHMARK.json, field for field.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eSpec      `json:"end_to_end"`
	PerLayer   []layerSpec    `json:"per_layer"`
}

// runSeconds is the measured time of one run under BENCHMARK.json.
const runSeconds = 15

func specJSON() ([]byte, error) {
	s := benchSpec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, workloadSpec{w.name, w.why})
	}
	js, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(js, '\n'), nil
}

// metric is one reported figure. Samples is the number of measurements
// behind a timing (0 for counts and derived ratios).
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}

// result is one workload run: its checks and its figures. Metrics are the
// catalogued ones the summary line reports (end-to-end untraced, per-layer
// traced); Figures are the workload's own user-facing numbers under the
// names users know them by (study_s, query_p99_ms, infer_int8_ms, ...).
type result struct {
	Workload  string
	Traced    bool
	Env       environment
	Attempted int
	Failed    int
	Failures  []string
	Metrics   []metric
	Figures   []metric
}

func (r *result) add(name string, v float64, unit string, samples int) {
	r.Metrics = append(r.Metrics, metric{name, v, unit, samples})
}

func (r *result) figure(name string, v float64, unit string, samples int) {
	r.Figures = append(r.Figures, metric{name, v, unit, samples})
}

func (r *result) setChecks(c *checker) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r.Attempted, r.Failed = c.attempted, c.failed
	r.Failures = append([]string(nil), c.msgs...)
}

// fillCatalog orders the run's metrics as the catalog lists them and fills
// the layers this workload leaves idle with 0. A metric outside the
// catalog, or a missing end-to-end one, is a bug in this program.
func (r *result) fillCatalog() {
	have := map[string]metric{}
	for _, m := range r.Metrics {
		have[m.Name] = m
	}
	var out []metric
	if r.Traced {
		for _, s := range perLayer {
			m, ok := have[s.Name]
			if !ok {
				m = metric{Name: s.Name, Unit: s.Unit}
			}
			out = append(out, m)
			delete(have, s.Name)
		}
	} else {
		for _, s := range endToEnd {
			m, ok := have[s.Name]
			if !ok {
				panic("perfbench: " + r.Workload + " did not report " + s.Name)
			}
			out = append(out, m)
			delete(have, s.Name)
		}
	}
	for name := range have {
		panic("perfbench: " + r.Workload + " reported uncatalogued metric " + name)
	}
	r.Metrics = out
}

func (r *result) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s) seed=%d nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		r.Workload, mode, r.Env.Seed, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.Go, r.Env.CPU)
	row := func(m metric) {
		n := ""
		if m.Samples > 0 {
			n = fmt.Sprintf("n=%d", m.Samples)
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-8s %s\n", m.Name, m.Value, m.Unit, n)
	}
	for _, m := range r.Figures {
		row(m)
	}
	if len(r.Figures) > 0 {
		fmt.Fprintln(w, "  --")
	}
	for _, m := range r.Metrics {
		if r.Traced && m.Value == 0 && m.Samples == 0 {
			continue // idle layer of another workload
		}
		row(m)
	}
	fmt.Fprintf(w, "  checks: attempted=%d failed=%d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}

// printOverhead sets each workload's traced end-to-end figures beside the
// untraced ones: the difference is what tracing costs.
func printOverhead(w io.Writer, results []*result) {
	fmt.Fprintln(w, "== tracing overhead (traced vs untraced)")
	untraced := map[string]*result{}
	for _, r := range results {
		if !r.Traced {
			untraced[r.Workload] = r
		}
	}
	for _, r := range results {
		u := untraced[r.Workload]
		if !r.Traced || u == nil {
			continue
		}
		for _, m := range []string{mLatency, mThroughput, mAlloc} {
			a, b := valueOf(u.Metrics, m), valueOf(r.Metrics, tracedFigure[m])
			fmt.Fprintf(w, "  %-10s %-17s untraced %12.6g  traced %12.6g  %+6.1f%%\n",
				r.Workload, m, a, b, 100*(b-a)/a)
		}
	}
}

func valueOf(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

// summaryLine renders the final JSON line. With several workloads the
// untraced metrics are keyed workload.metric.
func summaryLine(results []*result, prefixed bool) ([]byte, int) {
	l := line{Metrics: map[string]lineMetric{}}
	for _, r := range results {
		l.Attempted += r.Attempted
		l.Failed += r.Failed
		if prefixed && r.Traced {
			continue
		}
		for _, m := range r.Metrics {
			name := m.Name
			if prefixed {
				name = r.Workload + "." + name
			}
			l.Metrics[name] = lineMetric{m.Value, m.Unit}
		}
	}
	l.Correct = l.Failed == 0 && l.Attempted > 0
	js, err := json.Marshal(l)
	if err != nil {
		// Only a NaN or Inf can make this fail; report it as a failed run.
		js = []byte(fmt.Sprintf(`{"correct": false, "attempted": %d, "failed": %d, "metrics": {}}`, l.Attempted, l.Attempted))
		return js, l.Attempted
	}
	return js, l.Failed
}

// checker counts attempted operations and failed output checks; every
// failure feeds fail_frac and makes the command exit non-zero.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
}

func (c *checker) attempt(n int) {
	c.mu.Lock()
	c.attempted += n
	c.mu.Unlock()
}

// check counts err, when non-nil, as one failed operation and reports
// whether the output passed.
func (c *checker) check(err error) bool {
	if err == nil {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.msgs) < 20 {
		c.msgs = append(c.msgs, err.Error())
	}
	return false
}

func (c *checker) failFrac() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// quantile interpolates linearly between order statistics, q in [0, 1].
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

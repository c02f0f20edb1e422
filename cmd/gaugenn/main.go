// Command gaugenn drives the full measurement study from the terminal:
//
//	gaugenn study   -seed 42 -scale 0.05 [-http] [-workers N] [-out DIR] [-cache-dir DIR] [-v]
//	gaugenn serve   -cache-dir DIR [-addr :8077] [-run-workers N]
//	gaugenn load    -addr http://HOST:8077 [-clients N] [-submissions N] [-chaos]
//	gaugenn bench   -device Q845 -backend cpu -model m.tflite [-threads 4] [-execute]
//	gaugenn exec    -demo TASK | -model FILE | -cache-dir DIR -checksum KEY [-runs N] [-workers N]
//	gaugenn fleet   -devices A70,Q845,Q888 -backends cpu,xnnpack,gpu -models 3 [-mode executed] [-replicas N] [-agents addr,...]
//	gaugenn fsck    -cache-dir DIR [-fix]
//	gaugenn devices
//
// "study" runs crawl -> extract -> analyse for both snapshots and prints
// the Table 2/3 and Figure 4/5/6/7/15 summaries; with -cache-dir it also
// persists every derived artifact so the next run is warm. "serve"
// answers report, model-lookup and diff queries over HTTP from a
// persisted cache dir; with -run-workers it additionally executes
// submitted studies through the multi-tenant scheduler (admission
// control, quotas, priorities, resumable SSE streams — docs/serve.md).
// "load" replays a chaos client swarm against a live serve instance and
// reports latency quantiles plus protocol-invariant counters. "bench"
// measures one model file on one simulated device (-execute switches to
// the measured interpreter backend); "exec" runs a model for real through
// the interpreter and prints its determinism digest and per-class
// roofline; "fleet" sweeps a benchmark matrix across a pool of device
// rigs (-mode executed measures instead of simulating); "fsck" audits
// (and with -fix repairs) a study store; "devices" lists Table 1
// profiles.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/gaugenn/gaugenn/internal/bench"
	"github.com/gaugenn/gaugenn/internal/core"
	"github.com/gaugenn/gaugenn/internal/errs"
	"github.com/gaugenn/gaugenn/internal/event"
	"github.com/gaugenn/gaugenn/internal/exec"
	"github.com/gaugenn/gaugenn/internal/faults"
	"github.com/gaugenn/gaugenn/internal/fleet"
	"github.com/gaugenn/gaugenn/internal/fsck"
	"github.com/gaugenn/gaugenn/internal/loadgen"
	"github.com/gaugenn/gaugenn/internal/nn/formats"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
	"github.com/gaugenn/gaugenn/internal/obs"
	"github.com/gaugenn/gaugenn/internal/power"
	"github.com/gaugenn/gaugenn/internal/report"
	"github.com/gaugenn/gaugenn/internal/sched"
	"github.com/gaugenn/gaugenn/internal/serve"
	"github.com/gaugenn/gaugenn/internal/soc"
	"github.com/gaugenn/gaugenn/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Long-running subcommands run under a signal-cancelled context: the
	// first SIGINT/SIGTERM cancels gracefully (pipelines drain, a cache
	// dir is left consistent and resumable), a second force-exits.
	ctx, cancel := signalContext(context.Background())
	defer cancel()
	var err error
	switch os.Args[1] {
	case "study":
		err = runStudy(ctx, os.Args[2:])
	case "serve":
		err = runServe(ctx, os.Args[2:])
	case "load":
		err = runLoad(ctx, os.Args[2:])
	case "bench":
		err = runBench(os.Args[2:])
	case "exec":
		err = runExec(os.Args[2:])
	case "fleet":
		err = runFleet(ctx, os.Args[2:])
	case "fsck":
		err = runFsck(os.Args[2:])
	case "devices":
		err = runDevices()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		if errors.Is(err, errs.ErrCancelled) {
			fmt.Fprintln(os.Stderr, "gaugenn: interrupted:", err)
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "gaugenn:", err)
		os.Exit(1)
	}
}

// signalContext derives a context cancelled by the first SIGINT/SIGTERM.
// A second signal force-exits immediately — the escape hatch when a
// graceful drain is itself stuck.
func signalContext(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		fmt.Fprintln(os.Stderr, "\ngaugenn: signal received — cancelling (again to force exit)")
		cancel()
		<-ch
		fmt.Fprintln(os.Stderr, "gaugenn: forced exit")
		os.Exit(130)
	}()
	return ctx, cancel
}

// startDebug exposes the observability surface when -debug-addr is set;
// the returned stop func is a no-op for the empty address.
func startDebug(addr string) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	ds, err := obs.StartDebug(addr, obs.Default())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "debug: metrics and pprof on http://%s (/metrics, /healthz, /debug/pprof)\n", ds.Addr)
	return func() { ds.Close() }, nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  gaugenn study   -seed N -scale F [-http] [-workers N] [-out DIR]
                  [-cache-dir DIR] [-resume=false] [-deadline 30s] [-v]
                  [-trace FILE] [-debug-addr :6060 [-linger 30s]]
  gaugenn serve   -cache-dir DIR [-addr :8077] [-debug-addr :6060]
                  [-run-workers N [-max-queue N] [-tenant-share N] [-tenant-inflight N]
                   [-run-timeout D] [-retry-after D] [-sse-write-timeout D]]
  gaugenn load    -addr http://HOST:8077 [-clients N] [-submissions N] [-tenants N]
                  [-seed N] [-study-seed N] [-scale F] [-rude F] [-stall F] [-cancel F]
                  [-chaos [-chaos-seed N]] [-json FILE]
  gaugenn bench   -device MODEL -backend NAME -model FILE [-threads N] [-batch N] [-runs N]
                  [-execute]
  gaugenn exec    -demo TASK | -model FILE | -cache-dir DIR -checksum KEY
                  [-runs N] [-workers N]
  gaugenn fleet   -devices A,B,... -backends a,b,... -models N [-seed N] [-replicas N]
                  [-agents host:port,...] [-runs N] [-mode simulated|executed]
                  [-scenarios=false] [-json FILE] [-out DIR] [-debug-addr :6060]
  gaugenn fsck    -cache-dir DIR [-fix]
  gaugenn devices`)
}

func runStudy(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("study", flag.ExitOnError)
	seed := fs.Int64("seed", 42, "store generation seed")
	scale := fs.Float64("scale", 0.05, "store scale (1.0 = paper scale)")
	useHTTP := fs.Bool("http", false, "crawl through the store HTTP API")
	workers := fs.Int("workers", 0, "pipeline worker count per snapshot (0 = GOMAXPROCS)")
	out := fs.String("out", "", "directory for report files (stdout if empty)")
	cacheDir := fs.String("cache-dir", "", "persistent study store directory (warm re-runs, `gaugenn serve` input)")
	resume := fs.Bool("resume", true, "consult existing cache entries (false: recompute but still persist)")
	failureBudget := fs.Float64("failure-budget", 0, "per-snapshot fraction of apps allowed to fail before the study aborts (0 = 5% default, negative = zero tolerance)")
	deadline := fs.Duration("deadline", 0, "abort the run after this long (0 = none); an interrupted -cache-dir run resumes warm")
	verbose := fs.Bool("v", false, "report analyse/persist stage progress and cache statistics")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON timeline of the run here (load in chrome://tracing or Perfetto)")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address for the run's duration")
	linger := fs.Duration("linger", 0, "keep the -debug-addr server up this long after the run finishes (scrape window for short runs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopDebug, err := startDebug(*debugAddr)
	if err != nil {
		return err
	}
	defer stopDebug()
	// Validate up front, before any store generation starts.
	if *scale <= 0 {
		return fmt.Errorf("study: -scale must be positive (got %g)", *scale)
	}
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	cfg := core.DefaultConfig(*seed, *scale)
	cfg.UseHTTP = *useHTTP
	cfg.Workers = *workers
	cfg.CacheDir = *cacheDir
	cfg.Resume = *resume
	cfg.FailureBudget = *failureBudget
	start := time.Now()
	// Both snapshot pipelines emit events concurrently; throttle first,
	// serialise the writes, and let each stage's completion line end in a
	// newline so the two interleaved stages stay legible. The
	// analyse/persist stages are -v only; by default the crawl line is
	// the run's single progress stream.
	var progressMu sync.Mutex
	line := func(stage, snapshot string, done, total int) {
		if !*verbose && stage != "crawl" {
			return
		}
		if done != total && done%500 != 0 {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		// \x1b[K clears to end-of-line: interleaved stages overwrite each
		// other and a shorter line must not leave the longer one's tail.
		fmt.Fprintf(os.Stderr, "\r\x1b[K%s: %d/%d apps", event.StageName(stage, snapshot), done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer("study " + core.StudyID(cfg))
	}
	var cacheLine string
	cfg.OnEvent = func(ev event.Event) {
		if tracer != nil {
			tracer.Observe(ev)
		}
		switch v := ev.(type) {
		case event.StageStart:
			line(v.Stage, v.Snapshot, 0, v.Total)
		case event.StageProgress:
			line(v.Stage, v.Snapshot, v.Done, v.Total)
		case event.CacheStats:
			progressMu.Lock()
			cacheLine = fmt.Sprintf("cache: decodes=%d profiles=%d extracted=%d packaged=%d warm-reports=%d warm-analyses=%d warm-payloads=%d",
				v.Stats.Decodes, v.Stats.Profiles, v.ExtractedReports, v.Packaged,
				v.WarmReports, v.Stats.WarmAnalysisHits, v.Stats.WarmPayloadHits)
			progressMu.Unlock()
		}
	}
	res, err := core.Run(ctx, cfg)
	// The trace and the linger window survive a failed or cancelled run:
	// a partial timeline is exactly what a hung-run investigation needs.
	defer func() {
		if *debugAddr != "" && *linger > 0 {
			fmt.Fprintf(os.Stderr, "study: debug server lingering %v on %s\n", *linger, *debugAddr)
			lingerCtx, cancel := context.WithTimeout(context.Background(), *linger)
			defer cancel()
			<-lingerCtx.Done()
		}
	}()
	if tracer != nil {
		if js, terr := tracer.ChromeTrace(); terr != nil {
			fmt.Fprintf(os.Stderr, "study: rendering trace: %v\n", terr)
		} else if werr := os.WriteFile(*tracePath, js, 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "study: writing trace: %v\n", werr)
		} else {
			fmt.Fprintf(os.Stderr, "study: trace written to %s\n", *tracePath)
		}
	}
	if err != nil {
		if errors.Is(err, errs.ErrCancelled) && *cacheDir != "" {
			fmt.Fprintf(os.Stderr, "\nstudy interrupted; %s holds every finished artifact — rerun with -cache-dir %s to resume warm\n",
				*cacheDir, *cacheDir)
		}
		if errors.Is(err, errs.ErrBudgetExceeded) {
			fmt.Fprintln(os.Stderr, "\nstudy aborted: too many apps failed — raise -failure-budget to tolerate more, or fix the store/network fault")
		}
		return err
	}
	fmt.Fprintf(os.Stderr, "\nstudy complete in %v\n", time.Since(start).Round(time.Millisecond))
	if n := len(res.Quarantine); n > 0 {
		fmt.Fprintf(os.Stderr, "study degraded gracefully: %d app(s) quarantined (within failure budget)\n", n)
		for _, qe := range res.Quarantine {
			fmt.Fprintf(os.Stderr, "  %s/%s [%s]: %v\n", qe.Snapshot, qe.Package, qe.Stage, qe.Err)
		}
	}
	if ps := res.Persist; ps != nil {
		fmt.Fprintf(os.Stderr, "study %s persisted to %s (snapshots %s=%s... %s=%s...)\n",
			ps.StudyID, *cacheDir, "2020", ps.CorpusKeys["2020"][:12], "2021", ps.CorpusKeys["2021"][:12])
		if *verbose && cacheLine != "" {
			fmt.Fprintln(os.Stderr, cacheLine)
		}
	}

	emit := func(name, content string) error {
		if *out == "" {
			fmt.Println(content)
			return nil
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(*out, name), []byte(content), 0o644)
	}
	tables := core.StudyTables(res.Corpus20, res.Corpus21)
	for _, name := range core.TableNames() {
		if err := emit(name, tables[name]); err != nil {
			return err
		}
	}
	return nil
}

func runServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	cacheDir := fs.String("cache-dir", "", "persistent study store directory to serve")
	addr := fs.String("addr", ":8077", "HTTP listen address")
	grace := fs.Duration("grace", 10*time.Second, "shutdown grace period for in-flight requests and running studies")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address")
	runWorkers := fs.Int("run-workers", 0, "study execution worker slots (0 = read-only service, no POST /api/studies)")
	maxQueue := fs.Int("max-queue", 0, "bound on queued studies before submissions shed with 503 (0 = default 16)")
	tenantShare := fs.Int("tenant-share", 0, "one tenant's queue share before its submissions shed with 429 (0 = max-queue/4)")
	tenantInflight := fs.Int("tenant-inflight", 0, "one tenant's concurrently running studies (0 = run-workers/2)")
	runTimeout := fs.Duration("run-timeout", 0, "per-study execution timeout (0 = none)")
	retryAfter := fs.Duration("retry-after", 0, "Retry-After pacing attached to shed submissions (0 = default 2s)")
	sseWriteTimeout := fs.Duration("sse-write-timeout", 0, "per-write deadline on SSE streams; a reader stalled past it is cut (0 = default 15s)")
	censusTTL := fs.Duration("census-ttl", 0, "how long /healthz reuses its memoised store census (0 = default 2s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopDebug, err := startDebug(*debugAddr)
	if err != nil {
		return err
	}
	defer stopDebug()
	if *cacheDir == "" {
		return fmt.Errorf("serve: -cache-dir is required (populate one with `gaugenn study -cache-dir DIR`)")
	}
	if fi, err := os.Stat(*cacheDir); err != nil || !fi.IsDir() {
		// Read-only serve must point at an existing store instead of
		// silently answering from an empty one; with a scheduler attached
		// the service legitimately starts cold and fills its own store.
		if *runWorkers <= 0 {
			return fmt.Errorf("serve: cache dir %s does not exist (populate it with `gaugenn study -cache-dir %s`, or start with -run-workers to let the service fill it)", *cacheDir, *cacheDir)
		}
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			return fmt.Errorf("serve: creating cache dir: %w", err)
		}
	}
	st, err := store.Open(*cacheDir)
	if err != nil {
		return err
	}
	studies, err := st.Studies()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serve: %d studies in %s, listening on %s\n", len(studies), *cacheDir, *addr)
	for _, e := range studies {
		fmt.Fprintf(os.Stderr, "serve:   %s (models 2020=%d 2021=%d)\n", e.ID, e.Models["2020"], e.Models["2021"])
	}
	opts := []serve.Option{serve.WithSSEWriteTimeout(*sseWriteTimeout), serve.WithCensusTTL(*censusTTL)}
	var sch *sched.Scheduler
	if *runWorkers > 0 {
		sch = sched.New(sched.Config{
			CacheDir:          *cacheDir,
			MaxWorkers:        *runWorkers,
			MaxQueue:          *maxQueue,
			TenantQueueShare:  *tenantShare,
			TenantMaxInFlight: *tenantInflight,
			RunTimeout:        *runTimeout,
			RetryAfter:        *retryAfter,
		})
		opts = append(opts, serve.WithScheduler(sch))
		fmt.Fprintf(os.Stderr, "serve: study scheduler on (%d workers); POST /api/studies accepted\n", *runWorkers)
	}
	// An http.Server (not the bare ListenAndServe helper) so the signal
	// context can drain it gracefully: in-flight requests get the grace
	// period, new connections are refused immediately, and — because
	// every request context derives from the signal context via
	// BaseContext — in-flight corpus loads abort on the first signal
	// instead of pinning Shutdown for the full grace period.
	srv := &http.Server{
		Addr:        *addr,
		Handler:     serve.New(st, opts...).Handler(),
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		// Drain order matters: the scheduler first — admission stops
		// (late submissions shed with 503), running studies cancel through
		// the pipeline's warm-safe unwind, and every event ring closes,
		// which ends the SSE streams that would otherwise pin Shutdown —
		// then the HTTP server's own connection drain.
		if sch != nil {
			fmt.Fprintln(os.Stderr, "serve: draining scheduler (admission stopped)")
			if err := sch.Drain(shutCtx); err != nil {
				fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			}
		}
		fmt.Fprintln(os.Stderr, "serve: draining connections")
		if err := srv.Shutdown(shutCtx); err != nil {
			// Grace expired with requests still in flight: cut them.
			srv.Close()
			return fmt.Errorf("serve: shutdown: %w", err)
		}
		<-errCh // reap the ErrServerClosed from ListenAndServe
		fmt.Fprintln(os.Stderr, "serve: stopped")
		return nil
	}
}

// runLoad drives the chaos load harness against a live serve instance
// and prints (and optionally persists) the aggregated summary. The exit
// status is the protocol verdict: non-zero when a hard invariant failed
// (resume gaps, non-shed 5xx, unresolved studies).
func runLoad(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8077", "base URL of the serve instance under load")
	clients := fs.Int("clients", 16, "concurrent clients")
	submissions := fs.Int("submissions", 64, "total studies offered")
	tenants := fs.Int("tenants", 4, "distinct tenant identities")
	distinct := fs.Int("distinct", 4, "distinct study specs (repeats exercise warm dedup)")
	seed := fs.Int64("seed", 1, "behaviour-mix seed (who is rude, who stalls, who cancels)")
	studySeed := fs.Int64("study-seed", 42, "base store-generation seed for submitted specs")
	scale := fs.Float64("scale", 0.01, "submitted study scale")
	workers := fs.Int("workers", 0, "per-study pipeline workers submitted in each spec")
	maxPriority := fs.Int("max-priority", 3, "submissions spread across priorities 0..N (exercises preemption)")
	rude := fs.Float64("rude", 0.25, "fraction of clients that hang up mid-SSE and resume by cursor")
	stall := fs.Float64("stall", 0.15, "fraction of clients that stop reading mid-stream")
	cancelFrac := fs.Float64("cancel", 0.15, "fraction of clients that cancel their study mid-run")
	stallFor := fs.Duration("stall-for", 300*time.Millisecond, "how long a stalled reader stops consuming")
	jobTimeout := fs.Duration("job-timeout", 2*time.Minute, "end-to-end bound per submission")
	maxShedWait := fs.Duration("max-shed-wait", 2*time.Second, "cap on honouring a shed's Retry-After")
	chaos := fs.Bool("chaos", false, "inject transport faults (synthetic 503/429, truncation, stalls) into the client side")
	chaosSeed := fs.Int64("chaos-seed", 99, "fault schedule seed for -chaos")
	jsonPath := fs.String("json", "", "write the summary JSON here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := loadgen.Config{
		BaseURL:         *addr,
		Clients:         *clients,
		Submissions:     *submissions,
		Tenants:         *tenants,
		DistinctStudies: *distinct,
		Seed:            *seed,
		StudySeed:       *studySeed,
		Scale:           *scale,
		Workers:         *workers,
		MaxPriority:     *maxPriority,
		RudeFrac:        *rude,
		StallFrac:       *stall,
		CancelFrac:      *cancelFrac,
		StallFor:        *stallFor,
		JobTimeout:      *jobTimeout,
		MaxShedWait:     *maxShedWait,
	}
	if *chaos {
		// Client-side fault injection: the swarm itself sees synthetic
		// 503/429s, truncated bodies and stalled reads on top of whatever
		// the server does — the retry/resume paths must absorb both.
		plan := faults.NewSchedule(*chaosSeed).
			Set(faults.ClassHTTP500, faults.Rule{Rate: 0.05}).
			Set(faults.ClassHTTP429, faults.Rule{Rate: 0.05}).
			Set(faults.ClassTruncate, faults.Rule{Rate: 0.02}).
			Set(faults.ClassStall, faults.Rule{Rate: 0.02})
		cfg.Transport = faults.Transport(plan, "load:", nil)
	}
	start := time.Now()
	sum, err := loadgen.Run(ctx, cfg)
	if sum != nil {
		fmt.Fprintf(os.Stderr, "load: %d offered, %d accepted, %d shed (%d honored), %d reconnects in %v\n",
			sum.Submissions, sum.Accepted, sum.Shed, sum.ShedHonored, sum.Reconnects, time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(os.Stderr, "load: terminal: %d done, %d cancelled, %d failed, %d unresolved; %d preempted-and-recovered\n",
			sum.Completed, sum.Cancelled, sum.Failed, sum.Unresolved, sum.Preempted)
		fmt.Fprintf(os.Stderr, "load: chaos: %d rude disconnects, %d stalled readers, %d cancels issued\n",
			sum.RudeDisconnects, sum.StalledReaders, sum.CancelsIssued)
		fmt.Fprintf(os.Stderr, "load: stream: %d events, %d gaps, %d truncations, %d non-shed 5xx\n",
			sum.Events, sum.Gaps, sum.Truncations, sum.NonShed5xx)
		fmt.Fprintf(os.Stderr, "load: submit->first-event p50=%.1fms p99=%.1fms; queue-wait p50=%.1fms p99=%.1fms\n",
			sum.SubmitToFirstEvent.P50, sum.SubmitToFirstEvent.P99, sum.QueueWait.P50, sum.QueueWait.P99)
		if *jsonPath != "" {
			js, jerr := json.MarshalIndent(sum, "", "  ")
			if jerr != nil {
				return jerr
			}
			js = append(js, '\n')
			if werr := os.WriteFile(*jsonPath, js, 0o644); werr != nil {
				return werr
			}
			fmt.Fprintf(os.Stderr, "load: summary written to %s\n", *jsonPath)
		}
	}
	return err
}

func runBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	device := fs.String("device", "Q845", "device model (see `gaugenn devices`)")
	backend := fs.String("backend", "cpu", "runtime backend")
	model := fs.String("model", "", "model file (tflite/dlc/onnx/tf bytes)")
	threads := fs.Int("threads", 4, "CPU threads")
	batch := fs.Int("batch", 1, "batch size")
	runs := fs.Int("runs", 10, "measured inferences")
	execute := fs.Bool("execute", false, "measured backend: run inference for real through the interpreter (see docs/exec.md)")
	demo := fs.String("demo", "", "benchmark a built-in demo model (task name, e.g. 'face detection') instead of -model")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var data []byte
	name := *model
	if *demo != "" {
		g, err := demoGraph(*demo)
		if err != nil {
			return err
		}
		if data, err = core.EncodeTFLite(g); err != nil {
			return err
		}
		name = *demo
	} else {
		if *model == "" {
			return fmt.Errorf("need -model FILE or -demo TASK")
		}
		var err error
		data, err = os.ReadFile(*model)
		if err != nil {
			return err
		}
	}
	dev, err := soc.NewDevice(*device)
	if err != nil {
		return err
	}
	mon := power.NewMonitor()
	agent := bench.NewAgent(dev, nil, mon)
	res := agent.ExecuteJob(bench.Job{
		ID: "cli", ModelName: name, Model: data,
		Backend: *backend, Threads: *threads, Batch: *batch,
		Warmup: 2, Runs: *runs, Execute: *execute,
	})
	if res.Error != "" {
		return fmt.Errorf("%s", res.Error)
	}
	fmt.Printf("device=%s backend=%s model=%s\n", res.Device, res.Backend, res.ModelName)
	fmt.Printf("mean latency : %v\n", res.MeanLatency().Round(time.Microsecond))
	fmt.Printf("mean energy  : %.3f mJ/inference\n", res.MeanEnergymJ())
	fmt.Printf("efficiency   : %.1f MFLOP/sW\n", res.EfficiencyMFLOPsW())
	fmt.Printf("avg power    : %.3f W (monitor: %.1f mJ total)\n", res.AvgPowerW, res.MonitorEnergyMJ)
	fmt.Printf("flops        : %d, fallback ops: %d, throttled: %v\n", res.FLOPs, res.FallbackOps, res.Throttled)
	if res.OutputDigest != "" {
		fmt.Printf("output digest: sha256:%s\n", res.OutputDigest)
	}
	return nil
}

// runExec runs a model for real through the internal/exec interpreter —
// the measured backend behind `-execute`/`-mode executed` — and prints the
// determinism digest plus the per-class roofline. The model comes from a
// study store's graph CAS (-cache-dir + -checksum, the artifact `gaugenn
// study` persisted), a model file, or a built-in demo task.
func runExec(args []string) error {
	fs := flag.NewFlagSet("exec", flag.ExitOnError)
	cacheDir := fs.String("cache-dir", "", "study store holding the model graph (with -checksum)")
	checksum := fs.String("checksum", "", "graph checksum key in the store's CAS (see `gaugenn fsck`)")
	model := fs.String("model", "", "model file (tflite/dlc/onnx/tf bytes)")
	demo := fs.String("demo", "", "execute a built-in demo model (task name, e.g. 'face detection')")
	runs := fs.Int("runs", 8, "measured runs (seeds 0..runs-1)")
	workers := fs.Int("workers", 0, "pool workers (0 = GOMAXPROCS); results are identical for any count")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var g *graph.Graph
	var name string
	switch {
	case *demo != "":
		built, err := demoGraph(*demo)
		if err != nil {
			return err
		}
		g, name = built, *demo
	case *checksum != "":
		if *cacheDir == "" {
			return fmt.Errorf("-checksum needs -cache-dir DIR to read the graph from")
		}
		st, err := store.Open(*cacheDir)
		if err != nil {
			return err
		}
		data, ok, err := st.Get(store.KindGraph, *checksum)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("no graph %s in %s (persisted by `gaugenn study -cache-dir`)", *checksum, *cacheDir)
		}
		g, err = graph.DecodeBinary(data)
		if err != nil {
			return err
		}
		name = *checksum
	case *model != "":
		data, err := os.ReadFile(*model)
		if err != nil {
			return err
		}
		decoded, ok, err := formats.DecodeFile(data)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("%s matches no registered model format", *model)
		}
		g, name = decoded, *model
	default:
		return fmt.Errorf("need -demo TASK, -model FILE, or -cache-dir DIR -checksum KEY")
	}
	prog, err := exec.Compile(g)
	if err != nil {
		var ue *errs.UnsupportedOpsError
		if errors.As(err, &ue) {
			return fmt.Errorf("model %s cannot run on the measured backend (unsupported operators: %s)",
				ue.Model, strings.Join(ue.Ops, ", "))
		}
		return err
	}
	if *runs <= 0 {
		return fmt.Errorf("-runs must be positive, not %d", *runs)
	}
	seeds := make([]uint64, *runs)
	for i := range seeds {
		seeds[i] = uint64(i)
	}
	pool := exec.NewPool(prog, *workers)
	results := pool.Run(seeds)
	var total time.Duration
	h := sha256.New()
	for _, r := range results {
		total += r.Latency
		h.Write(r.Digest[:])
	}
	fmt.Printf("model=%s ops=%d arena=%d bytes workers=%d\n",
		name, len(g.Layers), prog.ArenaBytes(), pool.Workers())
	fmt.Printf("mean latency : %v over %d runs\n", (total / time.Duration(len(results))).Round(time.Microsecond), len(results))
	fmt.Printf("output digest: sha256:%x\n", h.Sum(nil))

	// The roofline rows come from a fresh single-threaded instance (the
	// pool does not expose its workers' accumulators).
	inst := prog.NewInstance()
	inst.Run(0)
	fmt.Println()
	fmt.Print(report.RooflineTable("Per-class roofline (one measured run)", inst.Stats()))
	return nil
}

// fleetTasks is the vision-leaning task cycle fleet matrices draw models
// from (the commonly-compatible subset the paper sweeps across backends).
var fleetTasks = []zoo.Task{
	zoo.TaskImageClassification, zoo.TaskFaceDetection, zoo.TaskObjectDetection,
	zoo.TaskSemanticSegmentation, zoo.TaskKeywordDetection, zoo.TaskPhotoBeauty,
}

func runFleet(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	devices := fs.String("devices", "A70,Q845,Q888", "comma-separated device models")
	backends := fs.String("backends", "cpu,xnnpack,gpu", "comma-separated runtime backends")
	nModels := fs.Int("models", 3, "number of zoo models in the matrix")
	seed := fs.Int64("seed", 42, "model generation seed")
	replicas := fs.Int("replicas", 1, "in-process rigs per device model (0 = none: pool is -agents only)")
	agents := fs.String("agents", "", "comma-separated remote benchd endpoints to add to the pool")
	threads := fs.Int("threads", 4, "CPU threads per job")
	warmup := fs.Int("warmup", 2, "warmup inferences per job")
	runs := fs.Int("runs", 5, "measured inferences per job")
	mode := fs.String("mode", "simulated", "inference backend: 'simulated' (device model) or 'executed' (measured via the interpreter, docs/exec.md)")
	scenarios := fs.Bool("scenarios", true, "project Table 4 usage scenarios from measured energy")
	jsonPath := fs.String("json", "", "write the machine-readable results file here")
	out := fs.String("out", "", "directory for report tables (stdout if empty)")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mode != "simulated" && *mode != "executed" {
		return fmt.Errorf("fleet: -mode must be 'simulated' or 'executed', not %q", *mode)
	}
	stopDebug, err := startDebug(*debugAddr)
	if err != nil {
		return err
	}
	defer stopDebug()
	split := func(s string) []string {
		var outS []string
		for _, p := range strings.Split(s, ",") {
			if p = strings.TrimSpace(p); p != "" {
				outS = append(outS, p)
			}
		}
		return outS
	}

	// The matrix is a pure function of (seed, models, devices, backends):
	// the aggregated output is byte-identical for any pool size.
	rng := rand.New(rand.NewSource(*seed))
	var models []fleet.ModelSpec
	for i := 0; i < *nModels; i++ {
		task := fleetTasks[i%len(fleetTasks)]
		ms, err := fleet.ZooModel(zoo.Spec{
			Task: task, Seed: *seed + int64(i), Opts: zoo.DefaultOptsFor(task, rng),
		})
		if err != nil {
			return err
		}
		models = append(models, ms)
	}
	matrix := fleet.Matrix{
		Models:   models,
		Devices:  split(*devices),
		Backends: split(*backends),
		Threads:  *threads,
		Warmup:   *warmup,
		Runs:     *runs,
		Execute:  *mode == "executed",
	}
	if *scenarios {
		matrix.Scenarios = bench.AllScenarios()
	}
	feasible, total, err := matrix.FeasibleCells()
	if err != nil {
		// Executed mode validates every model against the interpreter's op
		// vocabulary up front; name the offending operators rather than
		// dumping the wrapped chain.
		var ue *errs.UnsupportedOpsError
		if errors.As(err, &ue) {
			return fmt.Errorf("fleet: model %s cannot run in executed mode (unsupported operators: %s); rerun with -mode simulated",
				ue.Model, strings.Join(ue.Ops, ", "))
		}
		return err
	}

	var runners []fleet.Runner
	if *replicas > 0 {
		pool, err := fleet.NewLocalPool(matrix.Devices, *replicas)
		if err != nil {
			return err
		}
		defer pool.Close()
		runners = append(runners, pool.Runners()...)
	}
	seenAgents := map[string]bool{}
	for i, addr := range split(*agents) {
		// One runner per agent: two runners sharing one benchd would race
		// for the same physical device.
		if seenAgents[addr] {
			return fmt.Errorf("agent %s listed twice", addr)
		}
		seenAgents[addr] = true
		r, err := fleet.NewRemoteRunner(ctx, fmt.Sprintf("remote#%d", i), addr, 5*time.Second, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fleet: attached %s (%s)\n", addr, r.DeviceModel())
		runners = append(runners, r)
	}
	full, err := fleet.NewPool(runners...)
	if err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "fleet: %d models x %d devices x %d backends = %d cells (%d feasible) on %d rigs\n",
		len(matrix.Models), len(matrix.Devices), len(matrix.Backends), total, feasible, len(runners))
	start := time.Now()
	// Progress renders from the typed event stream (the same variants
	// `gaugenn study -v` consumes); cancellation leaves the line open and
	// the partial aggregate still renders below.
	var progressMu sync.Mutex
	agg, runErr := full.Run(ctx, matrix, fleet.Config{OnEvent: func(ev event.Event) {
		if p, ok := ev.(event.StageProgress); ok {
			progressMu.Lock()
			fmt.Fprintf(os.Stderr, "\r\x1b[Kfleet: %d/%d cells", p.Done, p.Total)
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
			progressMu.Unlock()
		}
	}})
	if agg == nil {
		return runErr
	}
	if runErr != nil && errors.Is(runErr, errs.ErrCancelled) {
		// An interrupted sweep writes nothing: partial tables/JSON would
		// silently clobber a previous complete run's artifacts while being
		// indistinguishable from them on disk.
		fmt.Fprintf(os.Stderr, "\nfleet: interrupted after %v — partial results discarded: %v\n",
			time.Since(start).Round(time.Millisecond), runErr)
		return runErr
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "fleet: partial failure: %v\n", runErr)
	}
	fmt.Fprintf(os.Stderr, "fleet: matrix complete in %v\n", time.Since(start).Round(time.Millisecond))

	emit := func(name, content string) error {
		if content == "" {
			return nil
		}
		if *out == "" {
			fmt.Println(content)
			return nil
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(*out, name), []byte(content), 0o644)
	}
	if err := emit("fleet_latency.txt", agg.LatencyTable()); err != nil {
		return err
	}
	if err := emit("fleet_energy.txt", agg.EnergyTable()); err != nil {
		return err
	}
	scTable, err := agg.ScenarioTable()
	if err != nil {
		return err
	}
	if err := emit("fleet_table4.txt", scTable); err != nil {
		return err
	}
	if *jsonPath != "" {
		js, err := agg.ResultsJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, js, 0o644); err != nil {
			return err
		}
	}
	sum, err := agg.Checksum()
	if err != nil {
		return err
	}
	fmt.Printf("results checksum: sha256:%s\n", sum)
	if matrix.Execute {
		// Executed-mode latencies are wall-clock, so the full checksum
		// varies run to run; the output checksum (matrix identity + output
		// digests) is the repeatable determinism witness.
		osum, err := agg.OutputChecksum()
		if err != nil {
			return err
		}
		fmt.Printf("output checksum : sha256:%s\n", osum)
	}
	return runErr
}

// runFsck audits a study store for corruption (torn writes, bit rot,
// truncation) and with -fix quarantines corrupt derived records so the
// next warm run recomputes them. Exit status: 0 clean, 1 issues found
// (audit mode) or unfixable issues remain (fix mode).
func runFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	cacheDir := fs.String("cache-dir", "", "persistent study store directory to audit")
	fix := fs.Bool("fix", false, "quarantine corrupt blobs and repair the manifest")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cacheDir == "" {
		return fmt.Errorf("fsck: -cache-dir is required")
	}
	res, err := fsck.Run(*cacheDir, fsck.Options{Fix: *fix})
	if err != nil {
		return err
	}
	var scanned int
	for _, kind := range store.Kinds() {
		fmt.Fprintf(os.Stderr, "fsck: %s: %d blob(s)\n", kind, res.Scanned[kind])
		scanned += res.Scanned[kind]
	}
	fmt.Fprintf(os.Stderr, "fsck: manifest: %d entries\n", res.ManifestEntries)
	if res.Clean() {
		fmt.Fprintf(os.Stderr, "fsck: %s clean (%d blobs verified)\n", *cacheDir, scanned)
		return nil
	}
	unfixed := 0
	for _, is := range res.Issues {
		fmt.Fprintln(os.Stderr, "fsck:", is.String())
		if !is.Fixed {
			unfixed++
		}
	}
	if *fix && unfixed == 0 {
		fmt.Fprintf(os.Stderr, "fsck: repaired %d issue(s); warm runs will recompute quarantined records\n", len(res.Issues))
		return nil
	}
	if *fix {
		return fmt.Errorf("fsck: %d issue(s) could not be repaired automatically", unfixed)
	}
	return fmt.Errorf("fsck: %d issue(s) found (rerun with -fix to repair)", len(res.Issues))
}

// demoGraph builds the zoo model the -demo flag of bench and exec names
// by task.
func demoGraph(task string) (*graph.Graph, error) {
	for _, t := range zoo.AllTasks() {
		if t.String() == task {
			return zoo.Build(zoo.Spec{Task: t, Seed: 1, Hinted: true})
		}
	}
	return nil, fmt.Errorf("unknown demo task %q", task)
}

func runDevices() error {
	rows := [][]string{}
	for _, m := range soc.AllDeviceModels() {
		d, err := soc.NewDevice(m)
		if err != nil {
			return err
		}
		bat := "N/A"
		if d.BatterymAh > 0 {
			bat = fmt.Sprintf("%d mAh", d.BatterymAh)
		}
		kind := "phone"
		if d.OpenDeck {
			kind = "open-deck HDK"
		}
		rows = append(rows, []string{d.Model, d.SoC.Name, fmt.Sprintf("%d GB", d.RAMGB), bat, kind})
	}
	fmt.Print(report.Table("Table 1: device specifications",
		[]string{"model", "SoC", "RAM", "battery", "form"}, rows))
	return nil
}

package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gaugenn/gaugenn/internal/errs"
	"github.com/gaugenn/gaugenn/internal/event"
	"github.com/gaugenn/gaugenn/internal/testutil"
)

// runBounded executes a study run and fails the test if it does not
// return within the bound — the promptness half of the cancellation
// contract (a cancelled run must drain its workers, not strand them).
func runBounded(t *testing.T, bound time.Duration, ctx context.Context, cfg Config) (*StudyResult, error) {
	t.Helper()
	type outcome struct {
		res *StudyResult
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := Run(ctx, cfg)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(bound):
		t.Fatalf("Run did not return within %v of cancellation", bound)
		return nil, nil
	}
}

// assertCancelled checks the full typed-error contract on a cancelled
// run's error: context.Canceled on the chain, the ErrCancelled sentinel,
// and a *StageError attribution.
func assertCancelled(t *testing.T, err error, wantStages ...string) {
	t.Helper()
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false: %v", err)
	}
	if !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("errors.Is(err, ErrCancelled) = false: %v", err)
	}
	var se *errs.StageError
	if !errors.As(err, &se) {
		t.Fatalf("no *StageError on the chain: %v", err)
	}
	if len(wantStages) > 0 {
		ok := false
		for _, w := range wantStages {
			if se.Stage == w {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("stage = %q (snapshot %q), want one of %v: %v", se.Stage, se.Snapshot, wantStages, err)
		}
	}
}

// cancelOn returns a config wired to cancel the run the first time an
// event matching pred is emitted, plus the context to run under.
func cancelOn(cfg Config, pred func(event.Event) bool) (Config, context.Context) {
	ctx, cancel := context.WithCancel(context.Background())
	var once atomic.Bool
	prev := cfg.OnEvent
	cfg.OnEvent = func(ev event.Event) {
		if prev != nil {
			prev(ev)
		}
		if pred(ev) && once.CompareAndSwap(false, true) {
			cancel()
		}
	}
	return cfg, ctx
}

func TestRunCancelDuringCrawlHTTP(t *testing.T) {
	cfg := DefaultConfig(42, 0.05)
	cfg.UseHTTP = true
	cfg, ctx := cancelOn(cfg, func(ev event.Event) bool {
		p, ok := ev.(event.StageProgress)
		return ok && p.Stage == "crawl" && p.Done >= 2
	})
	_, err := runBounded(t, 30*time.Second, ctx, cfg)
	// The observing stage depends on which worker trips first: the crawl
	// transport, the extractor, or the analyse ingest wait.
	assertCancelled(t, err, "crawl", "extract", "analyse")
}

func TestRunCancelDuringAnalyseInProcess(t *testing.T) {
	cfg := DefaultConfig(43, 0.05)
	cfg.UseHTTP = false
	cfg, ctx := cancelOn(cfg, func(ev event.Event) bool {
		p, ok := ev.(event.StageProgress)
		return ok && p.Stage == "analyse" && p.Done >= 2
	})
	_, err := runBounded(t, 30*time.Second, ctx, cfg)
	assertCancelled(t, err, "crawl", "extract", "analyse")
}

func TestRunCancelDuringPersist(t *testing.T) {
	cfg := DefaultConfig(44, 0.03)
	cfg.UseHTTP = false
	cfg.CacheDir = t.TempDir()
	cfg, ctx := cancelOn(cfg, func(ev event.Event) bool {
		s, ok := ev.(event.StageStart)
		return ok && s.Stage == "persist"
	})
	_, err := runBounded(t, 30*time.Second, ctx, cfg)
	// Snapshots finish at different times: the first persist cancels, but
	// the sibling may observe the shared context anywhere in its pipeline.
	assertCancelled(t, err, "persist", "crawl", "extract", "analyse")
}

func TestRunDeadlineExceededMatchesErrCancelled(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	cfg := DefaultConfig(45, 0.1)
	cfg.UseHTTP = false
	_, err := runBounded(t, 30*time.Second, ctx, cfg)
	if err == nil {
		t.Fatal("deadline run returned nil error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errors.Is(err, DeadlineExceeded) = false: %v", err)
	}
	if !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("an expired deadline must match ErrCancelled: %v", err)
	}
}

func TestRunPreCancelledContextFailsFast(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultConfig(46, 0.02)
	cfg.UseHTTP = false
	_, err := runBounded(t, 30*time.Second, ctx, cfg)
	assertCancelled(t, err)
}

// TestRunCancelNoGoroutineLeak cancels runs over both crawl paths and
// checks the goroutine census settles back to its pre-run level: a
// cancelled pipeline must drain its worker pools, HTTP server, and
// single-flight waiters, not strand them.
func TestRunCancelNoGoroutineLeak(t *testing.T) {
	for _, useHTTP := range []bool{false, true} {
		before := runtime.NumGoroutine()
		cfg := DefaultConfig(47, 0.05)
		cfg.UseHTTP = useHTTP
		cfg, ctx := cancelOn(cfg, func(ev event.Event) bool {
			p, ok := ev.(event.StageProgress)
			return ok && p.Done >= 2
		})
		_, err := runBounded(t, 30*time.Second, ctx, cfg)
		assertCancelled(t, err)
		testutil.GoroutinesSettled(t, before)
	}
}

// TestCancelledColdRunWarmResumeByteIdentical is the no-poison acceptance
// gate: a run cancelled mid-crawl must leave the dedup/persist caches in
// a state from which a warm Resume run produces corpora byte-identical to
// an uninterrupted run — no phantom failed-validation records, no torn
// analysis entries.
func TestCancelledColdRunWarmResumeByteIdentical(t *testing.T) {
	const seed, scale = 48, 0.05
	dir := t.TempDir()

	// Cold run, cancelled a few apps in.
	cfg := DefaultConfig(seed, scale)
	cfg.UseHTTP = false
	cfg.CacheDir = dir
	cfg.Resume = true
	cfg, ctx := cancelOn(cfg, func(ev event.Event) bool {
		p, ok := ev.(event.StageProgress)
		return ok && p.Stage == "analyse" && p.Done >= 5
	})
	if _, err := runBounded(t, 30*time.Second, ctx, cfg); err == nil {
		t.Fatal("interrupted run unexpectedly completed")
	}

	// Warm resume over the same store must complete and match...
	resumeCfg := DefaultConfig(seed, scale)
	resumeCfg.UseHTTP = false
	resumeCfg.CacheDir = dir
	resumeCfg.Resume = true
	resumed, err := Run(context.Background(), resumeCfg)
	if err != nil {
		t.Fatalf("resume after cancellation: %v", err)
	}

	// ...an uninterrupted run into a fresh store. Corpus CAS keys are
	// content hashes of the encoded corpora: equal keys == byte-identical
	// snapshots.
	freshCfg := DefaultConfig(seed, scale)
	freshCfg.UseHTTP = false
	freshCfg.CacheDir = t.TempDir()
	fresh, err := Run(context.Background(), freshCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"2020", "2021"} {
		got := resumed.Persist.CorpusKeys[label]
		want := fresh.Persist.CorpusKeys[label]
		if got == "" || got != want {
			t.Fatalf("snapshot %s: resumed corpus key %s != uninterrupted %s (cancellation poisoned the store)", label, got, want)
		}
	}
	// The resume must actually have been warm where the cold run got to:
	// at least one artifact loaded from the store rather than recomputed.
	ps := resumed.Persist
	if ps.WarmReports == 0 && ps.Cache.WarmPayloadHits == 0 && ps.Cache.WarmAnalysisHits == 0 {
		t.Fatalf("resume ran fully cold (%+v): the cancelled run persisted nothing", ps)
	}
}

// TestBenchCancelled covers the RunSpec surface: a cancelled context
// returns the typed stage error without running the remaining models.
func TestBenchCancelled(t *testing.T) {
	res, err := Run(context.Background(), Config{Seed: 49, Scale: 0.02, KeepGraphs: true})
	if err != nil {
		t.Fatal(err)
	}
	models, err := SelectBenchModels(res.Corpus21, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Bench(ctx, RunSpec{Device: "Q845", Backend: "cpu"}, models); err == nil {
		t.Fatal("cancelled Bench returned nil error")
	} else {
		assertCancelled(t, err, "bench")
	}
	// And the happy path still works with spec defaults.
	out, err := Bench(context.Background(), RunSpec{Device: "Q845", Backend: "cpu", Runs: 2}, models[:1])
	if err != nil || len(out) != 1 {
		t.Fatalf("Bench: %v (%d results)", err, len(out))
	}
}

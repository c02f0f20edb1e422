package gaugenn_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/gaugenn/gaugenn"
)

// TestStudyV2EndToEnd drives the whole v2 surface: options, the typed
// event stream, a cancellable run, the RunSpec bench path and the device
// lists.
func TestStudyV2EndToEnd(t *testing.T) {
	study := gaugenn.NewStudy(
		gaugenn.WithSeed(11),
		gaugenn.WithScale(0.02),
		gaugenn.WithWorkers(4),
	)
	events := study.Events()
	collected := make(chan []gaugenn.Event, 1)
	go func() {
		var evs []gaugenn.Event
		for ev := range events {
			evs = append(evs, ev)
		}
		collected <- evs
	}()
	res, err := study.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Corpus21.TotalModels() == 0 {
		t.Fatal("no models")
	}

	// The stream closed (Run returned) and carries a coherent per-stage
	// narrative: every StageStart eventually matched by a StageDone, and
	// per-stage progress monotonic.
	var evs []gaugenn.Event
	select {
	case evs = <-collected:
	case <-time.After(10 * time.Second):
		t.Fatal("event stream never closed")
	}
	type stageKey struct{ stage, snapshot string }
	started := map[stageKey]int{}
	doneTotals := map[stageKey]int{}
	lastDone := map[stageKey]int{}
	for _, ev := range evs {
		switch v := ev.(type) {
		case gaugenn.StageStart:
			started[stageKey{v.Stage, v.Snapshot}] = v.Total
		case gaugenn.StageProgress:
			k := stageKey{v.Stage, v.Snapshot}
			if _, ok := started[k]; !ok {
				t.Fatalf("progress before start for %v", k)
			}
			if v.Done < lastDone[k] {
				t.Fatalf("stage %v went backwards: %d after %d", k, v.Done, lastDone[k])
			}
			lastDone[k] = v.Done
		case gaugenn.StageDone:
			doneTotals[stageKey{v.Stage, v.Snapshot}] = v.Total
		}
	}
	for _, snap := range []string{"2020", "2021"} {
		for _, stage := range []string{"crawl", "analyse"} {
			k := stageKey{stage, snap}
			if started[k] == 0 {
				t.Fatalf("stage %v never started (events: %d)", k, len(evs))
			}
			if doneTotals[k] != started[k] {
				t.Fatalf("stage %v: done total %d != start total %d", k, doneTotals[k], started[k])
			}
			if lastDone[k] != started[k] {
				t.Fatalf("stage %v: final done %d != total %d", k, lastDone[k], started[k])
			}
		}
	}

	// Second Run on the same Study is a usage error.
	if _, err := study.Run(context.Background()); err == nil {
		t.Fatal("second Run must fail")
	}

	// RunSpec bench over the result.
	models, err := gaugenn.SelectBenchModels(res.Corpus21, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := gaugenn.Bench(context.Background(), gaugenn.RunSpec{
		Device: "S21", Backend: "cpu", Threads: 4, Runs: 2,
	}, models)
	if err != nil || len(out) != len(models) {
		t.Fatalf("Bench: err=%v results=%d", err, len(out))
	}
	if len(gaugenn.Devices()) != 6 || len(gaugenn.HDKs()) != 3 {
		t.Fatal("device lists")
	}
}

// TestStudyV2Cancellation checks the public cancellation contract end to
// end: typed sentinel, stage attribution, closed event stream.
func TestStudyV2Cancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	study := gaugenn.NewStudy(
		gaugenn.WithSeed(12),
		gaugenn.WithScale(0.05),
		gaugenn.WithEventHandler(func(ev gaugenn.Event) {
			if p, ok := ev.(gaugenn.StageProgress); ok && p.Done >= 2 {
				cancel()
			}
		}),
	)
	events := study.Events()
	_, err := study.Run(ctx)
	if err == nil {
		t.Fatal("cancelled study returned nil error")
	}
	if !errors.Is(err, gaugenn.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation not typed: %v", err)
	}
	var se *gaugenn.StageError
	if !errors.As(err, &se) || se.Stage == "" {
		t.Fatalf("no stage attribution: %v", err)
	}
	// The stream still closes after a cancelled run.
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-events:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("event stream not closed after cancellation")
		}
	}
}

// TestStudyV2FailureBudgetSurface exercises the graceful-degradation
// surface from the public API: a healthy run under zero tolerance must
// complete with an empty quarantine, and the re-exported types must
// compose with the errors package.
func TestStudyV2FailureBudgetSurface(t *testing.T) {
	var warns int
	study := gaugenn.NewStudy(
		gaugenn.WithSeed(11),
		gaugenn.WithScale(0.02),
		gaugenn.WithFailureBudget(-1),
		gaugenn.WithEventHandler(func(ev gaugenn.Event) {
			if _, ok := ev.(gaugenn.StageWarning); ok {
				warns++
			}
		}),
	)
	res, err := study.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantine) != 0 || warns != 0 {
		t.Fatalf("healthy zero-tolerance run quarantined: %d apps, %d warnings", len(res.Quarantine), warns)
	}
	// Compile-time: the typed-error surface is reachable from the root.
	var be *gaugenn.BudgetError
	var ae *gaugenn.AppError
	if errors.As(error(nil), &be) || errors.As(error(nil), &ae) || errors.Is(nil, gaugenn.ErrBudgetExceeded) {
		t.Fatal("nil error must match nothing")
	}
}

package core

import (
	"context"
	"sync"
	"testing"

	"github.com/gaugenn/gaugenn/internal/event"
)

// stageLog accumulates one stage's delivery history for contract checks.
type stageLog struct {
	starts    int
	dones     int
	lastDone  int
	total     int
	afterDone int // events delivered for the stage after its StageDone
	lastSeq   uint64
	seqOrder  bool // per-stage Seq strictly increased in delivery order
}

// TestEventDeliveryContract runs two real (small) studies — a plain one
// over HTTP and a CacheDir-backed one in process — with a handler that
// records every event, and asserts the documented contract: per stage,
// StageStart is delivered exactly once and first, Done counts never
// decrease, StageDone arrives exactly once and last, and stamps are
// monotonic in delivery order. Each snapshot's analyse total equals its
// crawl total, and the persist stages and the one CacheStats event
// appear exactly when the run is cached. The handler mutates shared
// state under its own lock from whichever goroutines the engine uses —
// concurrent-handler safety is the race detector's half of the test.
func TestEventDeliveryContract(t *testing.T) {
	t.Run("plain", func(t *testing.T) { checkEventContract(t, false) })
	t.Run("cached", func(t *testing.T) { checkEventContract(t, true) })
}

func checkEventContract(t *testing.T, cached bool) {
	var (
		mu     sync.Mutex
		stages = map[string]*stageLog{}
		stats  int
	)
	logFor := func(stage, snapshot string) *stageLog {
		k := stage + "/" + snapshot
		l, ok := stages[k]
		if !ok {
			l = &stageLog{seqOrder: true}
			stages[k] = l
		}
		return l
	}
	observe := func(stage, snapshot string, seq uint64, f func(l *stageLog)) {
		mu.Lock()
		defer mu.Unlock()
		l := logFor(stage, snapshot)
		if l.dones > 0 {
			l.afterDone++
		}
		if seq <= l.lastSeq {
			l.seqOrder = false
		}
		l.lastSeq = seq
		f(l)
	}

	cfg := DefaultConfig(31, 0.02)
	if cached {
		cfg.UseHTTP = false
		cfg.CacheDir = t.TempDir()
		cfg.Resume = true
	}
	cfg.OnEvent = func(ev event.Event) {
		switch v := ev.(type) {
		case event.StageStart:
			observe(v.Stage, v.Snapshot, v.Seq, func(l *stageLog) {
				l.starts++
				l.total = v.Total
			})
		case event.StageProgress:
			observe(v.Stage, v.Snapshot, v.Seq, func(l *stageLog) {
				if v.Done < l.lastDone {
					t.Errorf("%s/%s: Done went backwards: %d after %d", v.Stage, v.Snapshot, v.Done, l.lastDone)
				}
				l.lastDone = v.Done
			})
		case event.StageDone:
			observe(v.Stage, v.Snapshot, v.Seq, func(l *stageLog) {
				l.dones++
				l.afterDone-- // this event itself is not "after" done
			})
		case event.CacheStats:
			mu.Lock()
			stats++
			mu.Unlock()
		}
		// Stamps are assigned at emission, never zero.
		if st := stampOf(ev); st.Seq == 0 || st.Time.IsZero() {
			t.Errorf("unstamped event delivered: %#v", ev)
		}
	}
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(stages) == 0 {
		t.Fatal("no stage events delivered")
	}
	for k, l := range stages {
		if l.starts != 1 {
			t.Errorf("%s: StageStart delivered %d times, want 1", k, l.starts)
		}
		if l.dones != 1 {
			t.Errorf("%s: StageDone delivered %d times, want 1", k, l.dones)
		}
		if l.afterDone > 0 {
			t.Errorf("%s: %d events delivered after StageDone", k, l.afterDone)
		}
		if l.lastDone != l.total {
			t.Errorf("%s: final Done = %d, want total %d", k, l.lastDone, l.total)
		}
		if !l.seqOrder {
			t.Errorf("%s: stamp sequence not increasing in delivery order", k)
		}
	}
	// Both snapshots must have run both stages over the same apps, and
	// persisted exactly when cached.
	for _, snap := range []string{"2020", "2021"} {
		crawl, analyse := stages["crawl/"+snap], stages["analyse/"+snap]
		if crawl == nil || analyse == nil {
			t.Errorf("snapshot %s: crawl or analyse stage never reported", snap)
			continue
		}
		if crawl.total == 0 || analyse.total != crawl.total {
			t.Errorf("snapshot %s: analyse total %d, crawl total %d", snap, analyse.total, crawl.total)
		}
		if _, persisted := stages["persist/"+snap]; persisted != cached {
			t.Errorf("snapshot %s: persist stage reported = %v, want %v", snap, persisted, cached)
		}
	}
	want := 0
	if cached {
		want = 1
	}
	if stats != want {
		t.Errorf("CacheStats delivered %d times, want %d", stats, want)
	}
}

// stampOf mirrors the tracer's stamp extraction for contract checks.
func stampOf(ev event.Event) event.Stamp {
	switch v := ev.(type) {
	case event.StageStart:
		return v.Stamp
	case event.StageProgress:
		return v.Stamp
	case event.StageDone:
		return v.Stamp
	case event.StageWarning:
		return v.Stamp
	case event.CacheStats:
		return v.Stamp
	}
	return event.Stamp{}
}

package core

// Chaos properties: under a seeded fault schedule a study must do exactly
// one of three things — converge byte-identical to the fault-free run
// (retries beat transient faults), degrade with a deterministic quarantine
// list (persistent per-app faults within budget), or fail typed with a
// warm-resumable store (budget blown). Store-level faults split the same
// way: read corruption self-heals by recomputation, write failures are
// typed persist errors.

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/gaugenn/gaugenn/internal/errs"
	"github.com/gaugenn/gaugenn/internal/event"
	"github.com/gaugenn/gaugenn/internal/faults"
	"github.com/gaugenn/gaugenn/internal/playstore"
	"github.com/gaugenn/gaugenn/internal/store"
	"github.com/gaugenn/gaugenn/internal/testutil"
)

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// purchaseFaults routes only APK purchase requests (optionally filtered by
// package) through a fault transport, leaving charts and metadata clean —
// per-app faults without collateral damage to the crawl skeleton.
func purchaseFaults(sched *faults.Schedule, label string, match func(pkg string) bool) http.RoundTripper {
	faulty := faults.Transport(sched, label+":", nil)
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if req.URL.Path == "/fdfe/purchase" && (match == nil || match(req.URL.Query().Get("doc"))) {
			return faulty.RoundTrip(req)
		}
		return http.DefaultTransport.RoundTrip(req)
	})
}

func chaosConfig() Config {
	cfg := DefaultConfig(77, 0.02)
	cfg.UseHTTP = true
	return cfg
}

func TestChaosTransientFaultsConvergeByteIdentical(t *testing.T) {
	testutil.NoLeakedGoroutines(t)
	clean, err := Run(context.Background(), chaosConfig())
	if err != nil {
		t.Fatal(err)
	}

	cfg := chaosConfig()
	cfg.Transport = func(label string) http.RoundTripper {
		// One synthetic 503 per site: the client's default three-attempt
		// ladder must absorb it everywhere — charts, details, downloads.
		sched := faults.NewSchedule(23).Set(faults.ClassHTTP500, faults.Rule{Burst: 1})
		return faults.Transport(sched, label+":", nil)
	}
	faulty, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("transient faults must be retried away: %v", err)
	}
	if len(faulty.Quarantine) != 0 {
		t.Fatalf("transient faults quarantined %d apps: %v", len(faulty.Quarantine), faulty.Quarantine[0])
	}
	if !reflect.DeepEqual(fingerprint(t, clean), fingerprint(t, faulty)) {
		t.Fatal("faulty-but-retried study diverges from the fault-free run")
	}
}

func TestChaosPersistentFaultsQuarantineDeterministically(t *testing.T) {
	unlucky := func(pkg string) bool { return strings.HasSuffix(pkg, "0") }
	run := func() (*StudyResult, []event.StageWarning, map[string]int) {
		cfg := chaosConfig()
		cfg.FailureBudget = 0.5
		cfg.Transport = func(label string) http.RoundTripper {
			sched := faults.NewSchedule(29).Set(faults.ClassHTTP500, faults.Rule{Burst: -1})
			return purchaseFaults(sched, label, unlucky)
		}
		var mu sync.Mutex
		var warns []event.StageWarning
		dones := map[string]int{} // stage/snapshot -> StageDone total
		cfg.OnEvent = func(ev event.Event) {
			mu.Lock()
			defer mu.Unlock()
			switch v := ev.(type) {
			case event.StageWarning:
				warns = append(warns, v)
			case event.StageDone:
				dones[v.Stage+"/"+v.Snapshot] = v.Total
			}
		}
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("in-budget faults must degrade, not abort: %v", err)
		}
		return res, warns, dones
	}

	first, warns, dones := run()
	if len(first.Quarantine) == 0 {
		t.Fatal("no apps quarantined — the fault schedule matched nothing")
	}
	if len(warns) != len(first.Quarantine) {
		t.Fatalf("%d StageWarning events for %d quarantined apps", len(warns), len(first.Quarantine))
	}
	// Quarantined apps still count toward both stages: each finishes at
	// its snapshot's full chart size.
	for _, s := range []struct {
		label string
		snap  *playstore.Snapshot
	}{{"2020", first.Store.Snap20}, {"2021", first.Store.Snap21}} {
		charted := 0
		for _, c := range playstore.Categories() {
			charted += len(s.snap.TopChart(c, playstore.ChartDepth))
		}
		for _, stage := range []string{"crawl", "analyse"} {
			if got := dones[stage+"/"+s.label]; got != charted {
				t.Fatalf("%s/%s finished at %d apps, want the chart size %d", stage, s.label, got, charted)
			}
		}
	}
	inCorpus := map[string]map[string]bool{
		"2020": make(map[string]bool), "2021": make(map[string]bool),
	}
	for _, a := range first.Corpus20.Apps {
		inCorpus["2020"][a.Package] = true
	}
	for _, a := range first.Corpus21.Apps {
		inCorpus["2021"][a.Package] = true
	}
	for _, q := range first.Quarantine {
		if !unlucky(q.Package) {
			t.Fatalf("quarantined %s, which the schedule never faulted", q.Package)
		}
		if q.Stage != "crawl" {
			t.Fatalf("quarantine stage = %q, want crawl", q.Stage)
		}
		if inCorpus[q.Snapshot][q.Package] {
			t.Fatalf("%s is quarantined AND in the %s corpus", q.Package, q.Snapshot)
		}
	}

	second, _, _ := run()
	if !reflect.DeepEqual(quarantineKeys(first), quarantineKeys(second)) {
		t.Fatalf("quarantine diverges across identical faulty runs:\n%v\n%v",
			quarantineKeys(first), quarantineKeys(second))
	}
	if !reflect.DeepEqual(fingerprint(t, first), fingerprint(t, second)) {
		t.Fatal("degraded corpora diverge across identical faulty runs")
	}
}

func quarantineKeys(res *StudyResult) []string {
	var out []string
	for _, q := range res.Quarantine {
		out = append(out, q.Snapshot+"/"+q.Package+"#"+q.Stage)
	}
	return out
}

func TestChaosBudgetExceededTypedThenWarmResumable(t *testing.T) {
	testutil.NoLeakedGoroutines(t)
	dir := t.TempDir()
	clean, err := Run(context.Background(), chaosConfig())
	if err != nil {
		t.Fatal(err)
	}

	cfg := chaosConfig()
	cfg.CacheDir = dir
	cfg.Resume = true
	cfg.Transport = func(label string) http.RoundTripper {
		if label != "2021" {
			return nil // default transport: 2020 crawls clean
		}
		sched := faults.NewSchedule(31).Set(faults.ClassHTTP500, faults.Rule{Burst: -1})
		return purchaseFaults(sched, label, nil) // every 2021 download dies
	}
	_, err = Run(context.Background(), cfg)
	if err == nil {
		t.Fatal("an unreachable snapshot must blow the default budget")
	}
	if !errors.Is(err, errs.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want errs.ErrBudgetExceeded on the chain", err)
	}
	var be *errs.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want a *errs.BudgetError", err)
	}
	if be.Snapshot != "2021" || be.Failed <= be.Budget || len(be.Packages) != be.Failed {
		t.Fatalf("malformed budget error: %+v", be)
	}
	if !sortedStrings(be.Packages) {
		t.Fatalf("budget error packages not sorted: %v", be.Packages)
	}

	// The store the failed run left behind must warm-resume to the exact
	// fault-free result once the faults clear.
	cfg.Transport = nil
	resumed, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("resume after budget failure: %v", err)
	}
	if len(resumed.Quarantine) != 0 {
		t.Fatalf("clean resume quarantined %d apps", len(resumed.Quarantine))
	}
	if !reflect.DeepEqual(fingerprint(t, clean), fingerprint(t, resumed)) {
		t.Fatal("resumed study diverges from the fault-free run")
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

func TestChaosStoreWriteFaultFailsTypedPersist(t *testing.T) {
	cfg := cachedConfig(t.TempDir(), false)
	sched := faults.NewSchedule(37).Set(faults.ClassWriteErr, faults.Rule{Burst: -1})
	cfg.StoreFS = faults.FS(sched, store.OSFS{})
	_, err := Run(context.Background(), cfg)
	if err == nil {
		t.Fatal("a store that cannot write must fail the study")
	}
	var se *errs.StageError
	if !errors.As(err, &se) || se.Stage != "persist" {
		t.Fatalf("err = %v, want a persist-stage StageError", err)
	}
}

func TestChaosStoreReadCorruptionSelfHeals(t *testing.T) {
	dir := t.TempDir()
	cold, err := Run(context.Background(), cachedConfig(dir, false))
	if err != nil {
		t.Fatal(err)
	}

	// Every store read comes back with one bit flipped; no warm record can
	// be trusted, so the run must recompute everything — and still match.
	cfg := cachedConfig(dir, false)
	sched := faults.NewSchedule(41).Set(faults.ClassBitFlip, faults.Rule{Burst: -1})
	cfg.StoreFS = faults.FS(sched, store.OSFS{})
	healed, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("read corruption must degrade to recomputation: %v", err)
	}
	if healed.Persist.WarmReports != 0 {
		t.Fatalf("run trusted %d corrupt warm reports", healed.Persist.WarmReports)
	}
	if healed.Persist.ExtractedReports == 0 {
		t.Fatal("self-heal did not re-extract anything")
	}
	if !reflect.DeepEqual(fingerprint(t, cold), fingerprint(t, healed)) {
		t.Fatal("self-healed study diverges from the cold run")
	}
}

// TestChaosCorruptGraphBlobSelfHeals corrupts one persisted graph blob
// between a cold run and a warm one. The blob no longer matches its
// checksum, so the warm trust check must refuse the analysis behind it:
// the reports that reference it re-extract, the model is decoded and
// profiled again, and the study matches the cold run with nothing
// quarantined.
func TestChaosCorruptGraphBlobSelfHeals(t *testing.T) {
	dir := t.TempDir()
	cold, err := Run(context.Background(), cachedConfig(dir, false))
	if err != nil {
		t.Fatal(err)
	}

	blobs, err := filepath.Glob(filepath.Join(dir, store.KindGraph, "*", "*"))
	if err != nil || len(blobs) == 0 {
		t.Fatalf("cold run left no graph blobs (err %v)", err)
	}
	sort.Strings(blobs)
	data, err := os.ReadFile(blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 32 {
		t.Fatalf("graph blob %s holds only %d bytes", blobs[0], len(data))
	}
	for i := len(data) / 2; i < len(data)/2+16; i++ {
		data[i] ^= 0xff
	}
	if err := os.WriteFile(blobs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	healed, err := Run(context.Background(), cachedConfig(dir, false))
	if err != nil {
		t.Fatalf("a corrupt graph blob must degrade to recomputation: %v", err)
	}
	if len(healed.Quarantine) != 0 {
		t.Fatalf("warm run quarantined %d apps, first: %v", len(healed.Quarantine), healed.Quarantine[0])
	}
	if !reflect.DeepEqual(fingerprint(t, cold), fingerprint(t, healed)) {
		t.Fatal("self-healed study diverges from the cold run")
	}
}

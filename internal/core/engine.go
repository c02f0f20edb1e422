package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/gaugenn/gaugenn/internal/analysis"
	"github.com/gaugenn/gaugenn/internal/crawler"
	"github.com/gaugenn/gaugenn/internal/errgroup"
	"github.com/gaugenn/gaugenn/internal/errs"
	"github.com/gaugenn/gaugenn/internal/event"
	"github.com/gaugenn/gaugenn/internal/extract"
	"github.com/gaugenn/gaugenn/internal/index"
	"github.com/gaugenn/gaugenn/internal/playstore"
	"github.com/gaugenn/gaugenn/internal/store"
)

// PersistStats summarises a CacheDir-backed run's persistence stage and
// warm/cold work split.
type PersistStats struct {
	// StudyID is the study's manifest identity (a pure function of seed
	// and scale, e.g. "seed42-scale0.05").
	StudyID string
	// CorpusKeys maps snapshot label -> corpus blob key in the CAS.
	CorpusKeys map[string]string
	// WarmReports counts APKs whose extraction report was loaded from the
	// store; ExtractedReports counts APKs extracted in this run.
	WarmReports, ExtractedReports int64
	// Packaged counts APKs built for this run: by BuildAPK in process, or
	// by the store server per download over HTTP. An identical warm
	// in-process re-run packages none (see the apk store kind).
	Packaged int64
	// Cache is the analysis cache's decode/profile/warm-hit breakdown.
	Cache analysis.CacheStats
}

// cacheBreakdown mirrors the analysis cache's work split onto the
// dependency-free event form (field for field; the event package cannot
// import analysis).
func cacheBreakdown(s analysis.CacheStats) event.CacheBreakdown {
	return event.CacheBreakdown{
		Decodes:          s.Decodes,
		Profiles:         s.Profiles,
		WarmPayloadHits:  s.WarmPayloadHits,
		WarmAnalysisHits: s.WarmAnalysisHits,
		Payloads:         s.Payloads,
		Checksums:        s.Checksums,
	}
}

// StudyID derives the manifest identity of a study configuration.
func StudyID(cfg Config) string {
	return "seed" + strconv.FormatInt(cfg.Seed, 10) +
		"-scale" + strconv.FormatFloat(cfg.Scale, 'g', -1, 64)
}

// studyEngine runs one study through the staged pipeline — retrieval
// (crawl or package, report-cache aware), analysis (ingest by crawl index
// through the shared per-checksum cache) and persistence (write-through
// records plus end-of-snapshot corpus snapshots and a manifest append).
// Without a CacheDir the persist stage disappears and the engine degrades
// to the purely in-memory pipeline.
type studyEngine struct {
	cfg   Config
	st    *store.Store // nil without CacheDir
	cache *analysis.UniqueCache
	times *stageTimes

	warmReports atomic.Int64
	extracted   atomic.Int64
	packaged    atomic.Int64

	// quarMu guards the study-wide quarantine list; per-snapshot budget
	// arithmetic lives on each appFailures ledger.
	quarMu sync.Mutex
	quar   []*errs.AppError
}

func newStudyEngine(cfg Config) (*studyEngine, error) {
	e := &studyEngine{cfg: cfg, times: newStageTimes()}
	if cfg.CacheDir != "" {
		var (
			st  *store.Store
			err error
		)
		if cfg.StoreFS != nil {
			st, err = store.OpenFS(cfg.CacheDir, cfg.StoreFS)
		} else {
			st, err = store.Open(cfg.CacheDir)
		}
		if err != nil {
			return nil, err
		}
		e.st = st
		e.cache = analysis.NewPersistentUniqueCache(cfg.KeepGraphs, st, cfg.Resume)
	} else {
		e.cache = analysis.NewUniqueCache(cfg.KeepGraphs)
	}
	return e, nil
}

// budget resolves the per-snapshot failure budget in app counts: zero
// FailureBudget means the 5% default, negative tolerates nothing.
func (cfg Config) budget(total int) int {
	frac := cfg.FailureBudget
	switch {
	case frac < 0:
		return 0
	case frac == 0:
		frac = 0.05
	}
	return int(frac * float64(total))
}

// appFailures is one snapshot's quarantine ledger. Failures are admitted
// under the snapshot's budget — recorded on the engine, surfaced as
// StageWarning events — until the budget blows, at which point admit
// returns the typed *errs.BudgetError that stops the run.
type appFailures struct {
	eng      *studyEngine
	snapshot string
	total    int // the snapshot's app count, which sizes the budget

	mu   sync.Mutex
	pkgs []string
}

func (e *studyEngine) newFailures(snapshot string, total int) *appFailures {
	return &appFailures{eng: e, snapshot: snapshot, total: total}
}

// tolerate arbitrates one app failure: nil return means the app was
// quarantined and the pipeline should continue without it; a non-nil
// return must abort the run. Cancellations pass through untouched (they
// are not app failures), and persist-stage errors always abort — a failed
// write-through means the store lies to every future warm run.
func (f *appFailures) tolerate(pkg string, err error) error {
	if err == nil || errs.IsContextError(err) {
		return err
	}
	stage := "crawl"
	var se *errs.StageError
	if errors.As(err, &se) {
		stage = se.Stage
	}
	if stage == "persist" {
		return err
	}
	f.mu.Lock()
	f.pkgs = append(f.pkgs, pkg)
	failed := len(f.pkgs)
	blown := failed > f.eng.cfg.budget(f.total)
	var packages []string
	if blown {
		packages = append(packages, f.pkgs...)
		sort.Strings(packages)
	}
	f.mu.Unlock()
	f.eng.quarMu.Lock()
	f.eng.quar = append(f.eng.quar, &errs.AppError{
		Package: pkg, Snapshot: f.snapshot, Stage: stage, Err: err,
	})
	f.eng.quarMu.Unlock()
	f.eng.emit(event.StageWarning{
		Stage: stage, Snapshot: f.snapshot, Package: pkg, Err: err.Error(),
	})
	if blown {
		return &errs.BudgetError{
			Snapshot: f.snapshot, Budget: f.eng.cfg.budget(f.total),
			Failed: failed, Total: f.total, Packages: packages,
		}
	}
	return nil
}

// quarantined returns the study-wide quarantine list, sorted by snapshot
// then package so results are deterministic across scheduling.
func (e *studyEngine) quarantined() []*errs.AppError {
	e.quarMu.Lock()
	out := make([]*errs.AppError, len(e.quar))
	copy(out, e.quar)
	e.quarMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Snapshot != out[j].Snapshot {
			return out[i].Snapshot < out[j].Snapshot
		}
		return out[i].Package < out[j].Package
	})
	return out
}

// emit stamps one typed event and delivers it to the stage-duration
// metrics and the configured OnEvent handler. Stamping here — the single
// point events enter the stream — gives every consumer a monotonic
// timestamp and emission sequence number.
func (e *studyEngine) emit(ev event.Event) {
	ev = event.Stamped(ev)
	e.times.observe(ev)
	if e.cfg.OnEvent != nil {
		e.cfg.OnEvent(ev)
	}
}

// stageCounter serialises one stage's typed event stream so counts never
// go backwards even when steps land from many workers.
type stageCounter struct {
	engine   *studyEngine
	stage    string
	snapshot string

	mu    sync.Mutex
	done  int
	total int
}

func (e *studyEngine) newStage(stage, snapshot string) *stageCounter {
	return &stageCounter{engine: e, stage: stage, snapshot: snapshot}
}

// start announces the stage total before any step lands.
func (sc *stageCounter) start(total int) {
	sc.mu.Lock()
	sc.total = total
	sc.engine.emit(event.StageStart{Stage: sc.stage, Snapshot: sc.snapshot, Total: total})
	sc.mu.Unlock()
}

func (sc *stageCounter) step() {
	sc.mu.Lock()
	sc.done++
	sc.engine.emit(event.StageProgress{Stage: sc.stage, Snapshot: sc.snapshot, Done: sc.done, Total: sc.total})
	if sc.done == sc.total {
		sc.engine.emit(event.StageDone{Stage: sc.stage, Snapshot: sc.snapshot, Total: sc.total})
	}
	sc.mu.Unlock()
}

// loadReport resolves one APK's extraction report: from the persistent
// store when resuming and an APK with the same report key was extracted
// before, otherwise by running extraction. The APK is opened once, and
// each entry extraction reads is read and hashed once, for the key and the
// payload keys alike. key is the report's store key (empty without
// persistence); warm reports are already persisted, cold ones are
// persisted by the caller after ingest so their models' analysis records
// land first (see persistReport).
func (e *studyEngine) loadReport(ctx context.Context, apkBytes []byte) (rep *extract.Report, key string, warm bool, err error) {
	pkg := extract.OpenAPK(apkBytes)
	if e.st == nil {
		rep, err = pkg.Extract(ctx, e.cache)
		return rep, "", false, err
	}
	h := pkg.Key()
	key = store.HexKey(h[:])
	if e.cfg.Resume {
		if rep, ok := e.warmReport(key); ok {
			e.warmReports.Add(1)
			return rep, key, true, nil
		}
	}
	rep, err = pkg.Extract(ctx, e.cache)
	if err != nil {
		return nil, "", false, err
	}
	e.extracted.Add(1)
	return rep, key, false, nil
}

// warmReport loads the persisted report under key, if it can be trusted.
// A store read error is treated exactly like a cache miss: the warm path
// is an optimisation, and a failing disk read must degrade to
// recomputation, not kill the study. (Writes are different — see
// persistReport.)
func (e *studyEngine) warmReport(key string) (*extract.Report, bool) {
	data, ok, err := e.st.Get(store.KindReport, key)
	if err != nil || !ok {
		return nil, false
	}
	// A warm report is only trusted when every model it references still
	// has an analysis record (same guard as the payload front door): a
	// crashed or version-bumped store could hold a report whose checksums
	// no longer resolve, and ingesting it would fail hard with no graph to
	// recompute from. Re-extracting instead self-heals — the current run
	// re-persists every artifact under the current layout. An undecodable
	// record (codec bump, torn blob, crashed writer) is a miss too.
	rep, err := extract.DecodeReport(data)
	if err != nil || !e.analysesResolvable(rep) {
		return nil, false
	}
	return rep, true
}

// analysesResolvable reports whether every model checksum in a persisted
// report resolves to a live analysis record in the current cache (memory
// or store).
func (e *studyEngine) analysesResolvable(rep *extract.Report) bool {
	for _, m := range rep.Models {
		if !e.cache.HasAnalysis(m.Checksum) {
			return false
		}
	}
	return true
}

// persistReport writes a cold report through to the store. It must run
// after the report was ingested: ingestion computes (and persists) the
// analysis record of every model in the report, and a persisted report is
// only trusted warm because its analysis records are known to exist.
func (e *studyEngine) persistReport(key string, rep *extract.Report) error {
	if e.st == nil || key == "" {
		return nil
	}
	data, err := extract.EncodeReport(rep)
	if err != nil {
		return err
	}
	return e.st.Put(store.KindReport, key, data)
}

// persistCorpus snapshots a merged corpus into the CAS under its content
// hash, derives and persists its query index under the same key, and
// reports the persist stage's progress. ctx is checked before the encode
// starts: corpus blobs are content-keyed and write-once, so a cancelled
// persist simply leaves the snapshot out of the CAS for the resume run to
// write. The index is a derived record keyed by the corpus key — a
// re-run of the same study overwrites it with identical bytes, and serve
// rebuilds it lazily if this write is lost.
func (e *studyEngine) persistCorpus(ctx context.Context, label string, c *analysis.Corpus) (string, error) {
	if e.st == nil {
		return "", nil
	}
	st := e.newStage("persist", label)
	st.start(2)
	if err := ctx.Err(); err != nil {
		return "", err
	}
	blob, err := analysis.EncodeCorpus(c)
	if err != nil {
		return "", err
	}
	key := store.ContentKey(blob)
	if err := e.st.Put(store.KindCorpus, key, blob); err != nil {
		return "", err
	}
	st.step()
	if err := index.Persist(e.st, key, index.BuildStore(e.st, c)); err != nil {
		return "", err
	}
	st.step()
	return key, nil
}

// Run executes the full offline pipeline over both snapshots. The
// snapshots run concurrently, sharing a per-checksum analysis cache so a
// model carried over from 2020 to 2021 is profiled and classified exactly
// once; within each snapshot, crawl/extract/ingest fan out over
// Config.Workers goroutines. Results are byte-identical for a fixed seed
// regardless of the worker count.
//
// ctx bounds the whole run: cancellation (or an expired deadline) drains
// the worker pools promptly and Run returns a *errs.StageError naming the
// stage and snapshot that observed it, with the context error on the
// chain — errors.Is(err, context.Canceled) and errors.Is(err,
// errs.ErrCancelled) both hold. A cancelled CacheDir-backed run leaves
// the store consistent (every persisted record is complete and valid), so
// a subsequent Resume run warm-loads the finished prefix and produces
// corpora byte-identical to an uninterrupted run.
//
// Per-app failures (a download the retry ladder could not beat, a corrupt
// APK) degrade gracefully: the app is quarantined under
// Config.FailureBudget — dropped from the corpus, surfaced as a
// StageWarning event, listed in StudyResult.Quarantine — and the study
// completes on the survivors. Only a blown budget (or a persist failure,
// which would poison every future warm run) aborts, with a typed
// *errs.BudgetError on the chain.
//
// With Config.CacheDir set the run is backed by a persistent study store:
// every derived artifact is written through as it is produced, the merged
// corpora are snapshotted into the CAS, and the study is appended to the
// store manifest. A Resume run against a populated store loads warm
// entries instead of recomputing them — an identical re-run performs zero
// graph decodes and produces byte-identical corpora.
func Run(ctx context.Context, cfg Config) (*StudyResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("core: scale must be positive")
	}
	eng, err := newStudyEngine(cfg)
	if err != nil {
		return nil, err
	}
	metRuns.Inc()
	study, err := playstore.GenerateStudy(playstore.DefaultConfig(cfg.Seed, cfg.Scale))
	if err != nil {
		metRunFailures.Inc()
		return nil, err
	}
	res := &StudyResult{Store: study}
	corpusKeys := map[string]string{}
	var keysMu sync.Mutex
	// The group context is shared by both snapshot pipelines: the first
	// failure anywhere cancels it, halting the sibling too instead of
	// letting it run the rest of its crawl against a doomed study.
	g, gctx := errgroup.WithContext(ctx)
	runOne := func(snap *playstore.Snapshot, label string, dst **analysis.Corpus) func() error {
		return func() error {
			c, err := eng.runSnapshot(gctx, snap, label)
			if err != nil {
				return err
			}
			*dst = c
			key, err := eng.persistCorpus(gctx, label, c)
			if err != nil {
				return errs.Stage("persist", label, err)
			}
			if key != "" {
				keysMu.Lock()
				corpusKeys[label] = key
				keysMu.Unlock()
			}
			return nil
		}
	}
	g.Go(runOne(study.Snap20, "2020", &res.Corpus20))
	g.Go(runOne(study.Snap21, "2021", &res.Corpus21))
	if err := g.Wait(); err != nil {
		metRunFailures.Inc()
		return nil, err
	}
	res.Quarantine = eng.quarantined()
	if eng.st != nil {
		// A write-through failure means the store is a lie; fail loudly
		// rather than leave a partial cache that warms future runs.
		if err := eng.cache.PersistErr(); err != nil {
			metRunFailures.Inc()
			return nil, errs.Stage("persist", "", err)
		}
		entry := store.ManifestEntry{
			ID:        StudyID(cfg),
			Seed:      cfg.Seed,
			Scale:     cfg.Scale,
			Snapshots: corpusKeys,
			Apps: map[string]int{
				"2020": len(res.Corpus20.Apps), "2021": len(res.Corpus21.Apps),
			},
			Models: map[string]int{
				"2020": res.Corpus20.TotalModels(), "2021": res.Corpus21.TotalModels(),
			},
		}
		if err := eng.st.AppendManifest(entry); err != nil {
			metRunFailures.Inc()
			return nil, errs.Stage("persist", "", err)
		}
		res.Persist = &PersistStats{
			StudyID:          entry.ID,
			CorpusKeys:       corpusKeys,
			WarmReports:      eng.warmReports.Load(),
			ExtractedReports: eng.extracted.Load(),
			Packaged:         eng.packaged.Load(),
			Cache:            eng.cache.Stats(),
		}
		eng.emit(event.CacheStats{
			StudyID:          entry.ID,
			WarmReports:      res.Persist.WarmReports,
			ExtractedReports: res.Persist.ExtractedReports,
			Packaged:         res.Persist.Packaged,
			Stats:            cacheBreakdown(res.Persist.Cache),
		})
	}
	return res, nil
}

// runSnapshot crawls one snapshot into its corpus. Both app sources list
// the same apps in the same order (each category's top
// playstore.ChartDepth in rank order, categories in store order), so an
// app's position in the listing is its global index, the corpus slot it
// lands in: the corpus does not depend on scheduling, and the two sources
// produce byte-identical corpora. Over HTTP each app is downloaded,
// delivery-checked and extracted. In process, apps without an ML signal
// skip extraction, and with a store the snapshot's apk record serves apps
// an earlier run of this study packaged, without building or hashing them
// again, and fails apps whose packaging failed, without building them.
func (e *studyEngine) runSnapshot(ctx context.Context, snap *playstore.Snapshot, label string) (*analysis.Corpus, error) {
	cfg := e.cfg
	workers := cfg.workerCount()
	// corpus is created once the listing is known, before any app is
	// visited.
	var corpus *analysis.ShardedCorpus
	// ingest adds one app's report to the slot of its index and writes a
	// cold report through. Errors carry stage attribution so a cancelled
	// or failed run names the layer that observed it.
	ingest := func(ctx context.Context, idx int, category string, rep *extract.Report, key string, warm bool) error {
		if err := corpus.AddReport(ctx, idx, category, rep); err != nil {
			return errs.Stage("analyse", label, err)
		}
		if !warm {
			if err := e.persistReport(key, rep); err != nil {
				return errs.Stage("persist", label, err)
			}
		}
		return nil
	}
	// handle ingests one downloaded (or in-process-built) APK and returns
	// its report key. The shared UniqueCache doubles as the
	// hash-before-decode front door: duplicate model payloads (heavy
	// overlap between the 2020 and 2021 crawls) skip graph decode
	// entirely; with a store attached, whole identical APKs skip
	// extraction.
	handle := func(ctx context.Context, idx int, pkg, category string, apkBytes []byte) (string, error) {
		e.packaged.Add(1)
		rep, key, warm, err := e.loadReport(ctx, apkBytes)
		if err != nil {
			return "", errs.Stage("extract", label, fmt.Errorf("core: extracting %s: %w", pkg, err))
		}
		return key, ingest(ctx, idx, category, rep, key, warm)
	}

	// pkgs is the listing; visit retrieves and ingests the app at idx.
	var (
		pkgs  []string
		visit func(ctx context.Context, idx int) error
		memo  *apkMemo
	)
	if cfg.UseHTTP {
		srv := playstore.NewServer(snap)
		base, shutdown, err := srv.Listen()
		if err != nil {
			return nil, err
		}
		defer shutdown()
		client := crawler.NewClient(base)
		if cfg.Transport != nil {
			client.HTTPClient.Transport = cfg.Transport(label)
		}
		charts, err := client.Charts(ctx, playstore.ChartDepth, workers)
		if err != nil {
			return nil, errs.Stage("crawl", label, err)
		}
		pkgs = make([]string, len(charts))
		for i, m := range charts {
			pkgs[i] = m.Package
		}
		visit = func(ctx context.Context, idx int) error {
			m := charts[idx]
			apkBytes, err := client.DownloadAPK(ctx, m.Package)
			if err != nil {
				return errs.Stage("crawl", label, fmt.Errorf("crawler: download %s: %w", m.Package, err))
			}
			// The paper found no model shipped outside the base APK; the
			// crawl still checks every app's companion files.
			if _, err := client.Delivery(ctx, m.Package); err != nil {
				return errs.Stage("crawl", label, fmt.Errorf("crawler: delivery %s: %w", m.Package, err))
			}
			_, err = handle(ctx, idx, m.Package, m.Category, apkBytes)
			return err
		}
	} else {
		apps := snap.Charts(playstore.ChartDepth)
		pkgs = make([]string, len(apps))
		for i, a := range apps {
			pkgs[i] = a.Package
		}
		memo = e.openAPKMemo(label)
		visit = func(ctx context.Context, idx int) error {
			a := apps[idx]
			if !needsExtraction(a) {
				corpus.AddApp(idx, analysis.AppInfo{Package: a.Package, Category: string(a.Category)})
				return nil
			}
			recipe := memo.recipe(snap, a)
			rep, key, ok := e.recordedReport(memo, recipe, a.Package)
			if ok {
				e.warmReports.Add(1)
				if err := ingest(ctx, idx, string(a.Category), rep, key, true); err != nil {
					return err
				}
			} else {
				apkBytes, err := memo.build(recipe, func() ([]byte, error) { return snap.BuildAPK(a) })
				if err != nil {
					return errs.Stage("crawl", label, fmt.Errorf("core: packaging %s: %w", a.Package, err))
				}
				if key, err = handle(ctx, idx, a.Package, string(a.Category), apkBytes); err != nil {
					return err
				}
			}
			memo.record(recipe, key)
			return nil
		}
	}

	total := len(pkgs)
	corpus = analysis.NewShardedCorpus(label, cfg.KeepGraphs, total, e.cache)
	failures := e.newFailures(label, total)
	crawl, analyse := e.newStage("crawl", label), e.newStage("analyse", label)
	crawl.start(total)
	analyse.start(total)
	// gctx dies on this snapshot's own first failure as well as on run
	// cancellation and the sibling snapshot's failure through the parent,
	// so queued apps short-circuit promptly in every failure mode;
	// in-flight workers finish their current app and drain.
	g, gctx := errgroup.WithContext(ctx)
	g.SetLimit(workers)
	for idx := range pkgs {
		g.Go(func() error {
			if gctx.Err() != nil {
				return nil
			}
			if err := visit(gctx, idx); err != nil {
				// A failure seen after the context died is most likely its
				// echo, not the app's fault: return it, do not quarantine.
				if gctx.Err() != nil {
					return err
				}
				if err := failures.tolerate(pkgs[idx], err); err != nil {
					return err
				}
			}
			// A quarantined app steps both stages too, so disposition
			// counts stay whole.
			crawl.step()
			analyse.step()
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, errs.Stage("crawl", label, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, errs.Stage("crawl", label, err)
	}
	if err := memo.persist(); err != nil {
		return nil, errs.Stage("persist", label, err)
	}
	return corpus.Merge(), nil
}

package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"

	"github.com/gaugenn/gaugenn/internal/analysis"
	"github.com/gaugenn/gaugenn/internal/core"
	"github.com/gaugenn/gaugenn/internal/extract"
	"github.com/gaugenn/gaugenn/internal/index"
	"github.com/gaugenn/gaugenn/internal/obs"
	"github.com/gaugenn/gaugenn/internal/playstore"
	"github.com/gaugenn/gaugenn/internal/store"
)

const (
	studyScale = 0.1
	// One study's cost varies with its seed by a factor of two and more,
	// because the generated model sizes do. A run therefore makes whole
	// passes over a fixed set of studies — study-cold over coldStudies, each
	// visit into a fresh empty store, after coldWarmups throw-away studies
	// of its first seeds; study-warm over warmStores stores filled in
	// set-up — and reports the median over studies of each one's fastest
	// visit (the mean for allocation). Every study is visited equally
	// often, so the result covers the same studies however fast the
	// machine runs. A run starts another pass only when one more pass as
	// long as the last still ends before its deadline, and always makes
	// at least one.
	warmStores  = 16
	coldStudies = 10
	coldWarmups = 3
)

// The analysis cache exports its single-flight waits only as a metric.
var singleflightWaits = obs.Default().Counter("gaugenn_analysis_singleflight_waits_total", "")

// studySeeds derives n distinct study seeds from the workload seed.
func studySeeds(seed int64, n int) []int64 {
	r := rand.New(rand.NewSource(seed))
	seen := map[int64]bool{}
	out := make([]int64, 0, n)
	for len(out) < n {
		s := r.Int63n(1<<31) + 1
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// studyConfig is the configuration every scheduler-run study uses: in
// process, persistent store, resume on, default workers, no graphs kept
// in memory (`gaugenn study -cache-dir` differs only in keeping them).
func studyConfig(seed int64, dir string) core.Config {
	cfg := core.DefaultConfig(seed, studyScale)
	cfg.UseHTTP = false
	cfg.KeepGraphs = false
	cfg.CacheDir = dir
	cfg.Resume = true
	return cfg
}

// timedStudy runs one study and returns its wall time and the bytes it
// allocated. The heap is collected first, outside the timer, so no study
// pays for its predecessor's garbage.
func timedStudy(cfg core.Config) (*core.StudyResult, time.Duration, uint64, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a0 := ms.TotalAlloc
	t0 := time.Now()
	res, err := core.Run(context.Background(), cfg)
	d := time.Since(t0)
	runtime.ReadMemStats(&ms)
	if err == nil && res.Persist == nil {
		err = fmt.Errorf("study seed %d persisted nothing", cfg.Seed)
	}
	return res, d, ms.TotalAlloc - a0, err
}

// checkKeys compares two runs' corpus CAS keys, snapshot by snapshot.
func checkKeys(what string, want, got map[string]string) error {
	for _, label := range []string{"2020", "2021"} {
		if want[label] == "" || got[label] != want[label] {
			return fmt.Errorf("%s: corpus %s key %q, want %q", what, label, got[label], want[label])
		}
	}
	return nil
}

// checkWarm holds a warm re-run to its contract: everything from the
// store, nothing decoded, profiled or extracted.
func checkWarm(p *core.PersistStats) error {
	if p.Cache.Decodes != 0 || p.Cache.Profiles != 0 || p.ExtractedReports != 0 {
		return fmt.Errorf("warm study %s recomputed: %d decodes, %d profiles, %d extractions",
			p.StudyID, p.Cache.Decodes, p.Cache.Profiles, p.ExtractedReports)
	}
	return nil
}

// studyFixture is one study seed of a run: its store (study-warm), the
// corpus keys its first run produced, and its samples.
type studyFixture struct {
	seed int64
	dir  string
	keys map[string]string
	apps int

	walls, allocs []float64 // ms, KB
}

func runStudyCold(e *env) (*result, error) { return runStudy(e, false) }
func runStudyWarm(e *env) (*result, error) { return runStudy(e, true) }

func runStudy(e *env, warm bool) (*result, error) {
	ck := &checker{}
	n, nSetup := coldStudies, coldWarmups
	if warm {
		n, nSetup = warmStores, warmStores
	}
	seeds := studySeeds(e.seed, n)
	var fixtures []*studyFixture
	var setups []float64
	for _, s := range seeds[:nSetup] {
		dir, err := e.freshDir()
		if err != nil {
			return nil, err
		}
		res, d, _, err := timedStudy(studyConfig(s, dir))
		if err != nil {
			return nil, fmt.Errorf("set-up study seed %d: %w", s, err)
		}
		setups = append(setups, d.Seconds())
		fx := &studyFixture{seed: s, keys: res.Persist.CorpusKeys, apps: len(res.Corpus20.Apps) + len(res.Corpus21.Apps)}
		if warm {
			fx.dir = dir
		} else if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		fixtures = append(fixtures, fx)
	}
	for _, s := range seeds[nSetup:] {
		fixtures = append(fixtures, &studyFixture{seed: s})
	}

	var tr *tracer
	lt := newLayerTotals()
	if e.trace {
		tr = newTracer(1 << 20)
	}
	start, passes := time.Now(), 0
	for {
		passStart := time.Now()
		for _, fx := range fixtures {
			dir := fx.dir
			if !warm {
				var err error
				if dir, err = e.freshDir(); err != nil {
					return nil, err
				}
			}
			if err := measureStudy(e, ck, fx, dir, warm, tr, lt); err != nil {
				return nil, err
			}
			if !warm {
				if err := os.RemoveAll(dir); err != nil {
					return nil, err
				}
			}
		}
		passes++
		if time.Since(start)+time.Since(passStart) > e.seconds {
			break
		}
	}

	r := &result{}
	r.setChecks(ck)
	var lat, alloc, rate []float64
	samples := 0
	for _, fx := range fixtures {
		if len(fx.walls) > 0 {
			m := slices.Min(fx.walls)
			lat = append(lat, m)
			alloc = append(alloc, median(fx.allocs))
			rate = append(rate, float64(fx.apps)/(m/1e3))
			samples += len(fx.walls)
		}
	}
	r.figure("studies", float64(len(lat)), "count", 0)
	r.figure("visits_per_study", float64(passes), "count", 0)
	if e.trace {
		lt.report(r, tr)
		r.add(tracedFigure[mLatency], median(lat), "ms", samples)
		r.add(tracedFigure[mThroughput], median(rate), "1/s", samples)
		r.add(tracedFigure[mAlloc], mean(alloc), "KB", samples)
		if err := tr.write(e.traceFile); err != nil {
			return nil, err
		}
		fmt.Fprintf(e.log, "perfbench: trace written to %s\n", e.traceFile)
		return r, nil
	}
	r.add(mSetup, median(setups), "s", len(setups))
	r.add(mLatency, median(lat), "ms", samples)
	r.add(mThroughput, median(rate), "1/s", samples)
	r.add(mAlloc, mean(alloc), "KB", samples)
	r.figure("setup_s", median(setups), "s", len(setups))
	r.figure("setup_total_s", sum(setups), "s", len(setups))
	r.figure("study_s", median(lat)/1e3, "s", samples)
	r.figure("study_alloc_mb", mean(alloc)/1024, "MB", samples)
	r.figure("fail_frac", ck.failFrac(), "ratio", 0)
	return r, nil
}

// measureStudy runs one study of fx in dir, checks it, and records its
// sample. The traced run adds a timing store.FS, which gives the store.*
// metrics, and an event recorder to core.Run, then replays the study
// serially with every call a span.
func measureStudy(e *env, ck *checker, fx *studyFixture, dir string, warm bool, tr *tracer, lt *layerTotals) error {
	cfg := studyConfig(fx.seed, dir)
	var tfs *timingFS
	var clock *snapshotClock
	if e.trace {
		tfs = &timingFS{inner: store.OSFS{}}
		clock = newSnapshotClock()
		cfg.StoreFS = tfs
		cfg.OnEvent = clock.observe
	}
	waits0 := singleflightWaits.Value()
	ck.attempt(1)
	res, d, alloc, err := timedStudy(cfg)
	if !ck.check(err) {
		return nil
	}
	waits := singleflightWaits.Value() - waits0
	if fx.keys == nil {
		fx.keys = res.Persist.CorpusKeys
		fx.apps = len(res.Corpus20.Apps) + len(res.Corpus21.Apps)
	} else if !ck.check(checkKeys(fmt.Sprintf("study seed %d", fx.seed), fx.keys, res.Persist.CorpusKeys)) {
		return nil
	}
	if warm && !ck.check(checkWarm(res.Persist)) {
		return nil
	}
	fx.walls = append(fx.walls, float64(d.Nanoseconds())/1e6)
	fx.allocs = append(fx.allocs, float64(alloc)/1024)
	if !e.trace {
		return nil
	}

	replayDir := dir
	if !warm {
		var err error
		if replayDir, err = e.freshDir(); err != nil {
			return err
		}
		defer os.RemoveAll(replayDir)
	}
	ck.attempt(1)
	rp, err := replay(context.Background(), fx.seed, cfg.Scale, replayDir, tr, lt.nextOp())
	if !ck.check(err) {
		return nil
	}
	if !ck.check(checkKeys(fmt.Sprintf("replay of study seed %d", fx.seed), res.Persist.CorpusKeys, rp.keys)) {
		return nil
	}
	if warm && (rp.cache.Decodes != 0 || rp.extracted != 0) {
		ck.check(fmt.Errorf("warm replay of study seed %d decoded %d payloads and extracted %d APKs",
			fx.seed, rp.cache.Decodes, rp.extracted))
		return nil
	}
	lt.add(res, rp, d, waits, clock, tfs)
	return nil
}

// replayResult is what a serial replay produced and counted.
type replayResult struct {
	keys             map[string]string
	wall             time.Duration
	apks             int
	apkBytes         int64
	extracted, warmN int
	cache            analysis.CacheStats
	// op is the study's span id; each app takes the next one.
	op, lastApp int64
}

// needsExtraction mirrors core's in-process rule for which apps are
// packaged and extracted; a divergence shows up as a corpus key mismatch.
func needsExtraction(a *playstore.App) bool {
	return a.HasML() || a.UsesNNAPI || a.UsesXNNPACK || a.UsesSNPE || a.LazyModelDownload
}

// replay re-runs one study serially through the public calls core.Run
// makes, in its order, with every call a span: generate; per app package,
// hash, report load (store get and decode), extract, ingest and report
// persist; per snapshot merge, corpus encode and put, index build and
// persist. The corpus keys it persists must equal core.Run's.
func replay(ctx context.Context, seed int64, scale float64, dir string, tr *tracer, op int64) (*replayResult, error) {
	fsys := &timingFS{inner: store.OSFS{}, tr: tr}
	fsys.op.Store(op)
	st, err := store.OpenFS(dir, fsys)
	if err != nil {
		return nil, err
	}
	cache := analysis.NewPersistentUniqueCache(false, st, true)
	rr := &replayResult{keys: map[string]string{}, op: op}
	t0 := time.Now()
	root := tr.begin("study", op)
	defer tr.end(root)

	sp := tr.begin("playstore.generate", op)
	study, err := playstore.GenerateStudy(playstore.DefaultConfig(seed, scale))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	for _, s := range []struct {
		snap  *playstore.Snapshot
		label string
	}{{study.Snap20, "2020"}, {study.Snap21, "2021"}} {
		key, err := replaySnapshot(ctx, s.snap, s.label, st, cache, tr, fsys, rr)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", s.label, err)
		}
		rr.keys[s.label] = key
	}
	rr.wall = time.Since(t0)
	rr.cache = cache.Stats()
	return rr, nil
}

func replaySnapshot(ctx context.Context, snap *playstore.Snapshot, label string, st *store.Store,
	cache *analysis.UniqueCache, tr *tracer, fsys *timingFS, rr *replayResult) (string, error) {
	// timed runs one call as a span of the current operation.
	timed := func(name string, call func() error) error {
		sp := tr.begin(name, fsys.op.Load())
		defer tr.end(sp)
		return call()
	}
	shards := analysis.NewShardedCorpus(label, false, runtime.GOMAXPROCS(0), cache)
	for idx, a := range snap.Apps {
		if !needsExtraction(a) {
			shards.AddApp(idx, analysis.AppInfo{Package: a.Package, Category: string(a.Category)})
			continue
		}
		rr.lastApp++
		fsys.op.Store(rr.op + rr.lastApp)
		var apk []byte
		if err := timed("playstore.package", func() (err error) {
			apk, err = snap.BuildAPK(a)
			return err
		}); err != nil {
			return "", err
		}
		rr.apks++
		rr.apkBytes += int64(len(apk))
		var key string
		timed("extract.hash", func() error {
			h := extract.HashAPK(apk)
			key = store.HexKey(h[:])
			return nil
		})
		var rep *extract.Report
		timed("extract.report_load", func() error {
			data, ok, err := st.Get(store.KindReport, key)
			if err != nil || !ok {
				return err
			}
			if r, err := extract.DecodeReport(data); err == nil && resolvable(cache, r) {
				rep = r
			}
			return nil
		})
		warm := rep != nil
		if warm {
			rr.warmN++
		} else {
			if err := timed("extract.extract", func() (err error) {
				rep, err = extract.ExtractAPKCached(ctx, apk, cache)
				return err
			}); err != nil {
				return "", err
			}
			rr.extracted++
		}
		if err := timed("analysis.ingest", func() error {
			return shards.AddReport(ctx, idx, string(a.Category), rep)
		}); err != nil {
			return "", err
		}
		if !warm {
			if err := timed("extract.report_persist", func() error {
				data, err := extract.EncodeReport(rep)
				if err != nil {
					return err
				}
				return st.Put(store.KindReport, key, data)
			}); err != nil {
				return "", err
			}
		}
	}
	fsys.op.Store(rr.op)
	var c *analysis.Corpus
	timed("analysis.merge", func() error {
		c = shards.Merge()
		return nil
	})
	var key string
	if err := timed("analysis.encode_corpus", func() error {
		blob, err := analysis.EncodeCorpus(c)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(blob)
		key = store.HexKey(sum[:])
		return st.Put(store.KindCorpus, key, blob)
	}); err != nil {
		return "", err
	}
	if err := timed("index.build", func() error {
		return index.Persist(st, key, index.BuildStore(st, c))
	}); err != nil {
		return "", err
	}
	return key, nil
}

// resolvable is core's guard on a warm report: every model it names must
// still have an analysis record.
func resolvable(cache *analysis.UniqueCache, rep *extract.Report) bool {
	for _, m := range rep.Models {
		if !cache.HasAnalysis(m.Checksum) {
			return false
		}
	}
	return true
}

// layerTotals accumulates the traced run's per-layer figures over its
// repetitions; report divides by the count.
type layerTotals struct {
	reps                                int
	ops                                 int64
	runWall, replayWall                 time.Duration
	snap20, snap21                      time.Duration
	apks                                int
	apkBytes                            int64
	extracted, warmReports              int64
	decodes, profiles, payloads         int64
	warmAnalyses, warmPayloads, waits   int64
	reads, writes, misses               int64
	readBytes, writeBytes, readNS, wrNS int64
}

func newLayerTotals() *layerTotals { return &layerTotals{} }

// nextOp reserves a block of op ids for one replay (one id per app).
func (lt *layerTotals) nextOp() int64 {
	lt.ops += 1 << 20
	return lt.ops
}

func (lt *layerTotals) add(res *core.StudyResult, rp *replayResult, wall time.Duration, waits uint64, clock *snapshotClock, f *timingFS) {
	lt.reps++
	lt.runWall += wall
	lt.replayWall += rp.wall
	lt.snap20 += clock.wall("2020")
	lt.snap21 += clock.wall("2021")
	lt.apks += rp.apks
	lt.apkBytes += rp.apkBytes
	p := res.Persist
	lt.extracted += p.ExtractedReports
	lt.warmReports += p.WarmReports
	lt.decodes += p.Cache.Decodes
	lt.profiles += p.Cache.Profiles
	lt.payloads += int64(p.Cache.Payloads)
	lt.warmAnalyses += p.Cache.WarmAnalysisHits
	lt.warmPayloads += p.Cache.WarmPayloadHits
	lt.waits += int64(waits)
	lt.reads += f.reads.Load()
	lt.writes += f.writes.Load()
	lt.misses += f.misses.Load()
	lt.readBytes += f.readBytes.Load()
	lt.writeBytes += f.writeBytes.Load()
	lt.readNS += f.readNS.Load()
	lt.wrNS += f.writeNS.Load()
}

// report turns the totals and the replay spans' self times into per-layer
// metrics, each the mean over the run's repetitions.
func (lt *layerTotals) report(r *result, tr *tracer) {
	n := lt.reps
	if n == 0 {
		return
	}
	per := func(v float64) float64 { return v / float64(n) }
	self := tr.selfTimes()
	for _, name := range []string{
		"playstore.generate", "playstore.package", "extract.hash", "extract.extract",
		"extract.report_load", "extract.report_persist", "analysis.ingest", "analysis.merge",
		"analysis.encode_corpus", "index.build",
	} {
		r.add(name+"_s", per(self[name].Seconds()), "s", n)
	}
	r.add("playstore.apks", per(float64(lt.apks)), "count", 0)
	r.add("playstore.apk_mb", per(float64(lt.apkBytes)/1e6), "MB", 0)
	r.add("extract.extracted", per(float64(lt.extracted)), "count", 0)
	r.add("extract.warm_reports", per(float64(lt.warmReports)), "count", 0)
	r.add("analysis.decodes", per(float64(lt.decodes)), "count", 0)
	r.add("analysis.profiles", per(float64(lt.profiles)), "count", 0)
	r.add("analysis.warm_analysis_hits", per(float64(lt.warmAnalyses)), "count", 0)
	r.add("analysis.warm_payload_hits", per(float64(lt.warmPayloads)), "count", 0)
	r.add("analysis.singleflight_waits", per(float64(lt.waits)), "count", 0)
	if lt.payloads > 0 {
		r.add("analysis.decodes_per_payload", float64(lt.decodes)/float64(lt.payloads), "ratio", 0)
	}
	r.add("store.read_s", per(float64(lt.readNS)/1e9), "s", n)
	r.add("store.write_s", per(float64(lt.wrNS)/1e9), "s", n)
	r.add("store.reads", per(float64(lt.reads)), "count", 0)
	r.add("store.writes", per(float64(lt.writes)), "count", 0)
	r.add("store.read_mb", per(float64(lt.readBytes)/1e6), "MB", 0)
	r.add("store.write_mb", per(float64(lt.writeBytes)/1e6), "MB", 0)
	r.add("store.get_misses", per(float64(lt.misses)), "count", 0)
	r.add("core.snap2020_s", per(lt.snap20.Seconds()), "s", n)
	r.add("core.snap2021_s", per(lt.snap21.Seconds()), "s", n)
	r.add("core.parallelism", lt.replayWall.Seconds()/lt.runWall.Seconds(), "ratio", 0)
}

package analysis

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/gaugenn/gaugenn/internal/errs"
	"github.com/gaugenn/gaugenn/internal/extract"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
	"github.com/gaugenn/gaugenn/internal/store"
)

// uniqueData is everything derived once per distinct model checksum —
// profiling, classification, architecture fingerprinting and layer
// checksums. It is immutable after construction, so a single instance can
// back the Unique records of any number of corpora.
// Framework is deliberately absent: the checksum hashes the decoded
// graph+weights, so one checksum can ship under several formats (the
// Section 6.3 tflite+dlc twins) and the field would be first-winner
// nondeterministic here; corpora assign it from the checksum's first
// record in crawl-index order instead.
type uniqueData struct {
	name      string
	task      zoo.Task
	arch      zoo.Arch
	modality  graph.Modality
	profile   *graph.Profile
	layerSums []graph.Checksum
	weights   graph.WeightStats
	graph     *graph.Graph // nil unless the cache retains graphs
}

// UniqueCache deduplicates per-checksum model analysis across ingest
// workers and snapshots. The paper's two crawls overlap heavily (duplicate
// checksums across 2020 and 2021), so a shared cache profiles, classifies
// and fingerprints each distinct model exactly once, no matter how many
// workers or snapshots ingest it concurrently.
//
// The cache also implements extract.DecodeCache — the hash-before-decode
// front door: extraction content-hashes a candidate file-set and asks
// Payload whether those exact bytes were decoded before; only first
// sightings pay for a graph decode. Decoded graphs are parked as seeds
// until their checksum's analysis is recorded, then released — so
// borrowed weight bytes never pin an APK buffer beyond the first profile.
//
// Computation is single-flight at both layers, on one flight type: the
// first ingester of a payload hash decodes, the first ingester of a
// checksum profiles; every concurrent ingester of the same key waits.
// Waits are cancellable, and cancellation never poisons a key (see
// flight). All methods are safe for concurrent use.
//
// A cache built with NewPersistentUniqueCache is additionally backed by an
// on-disk study store: payload outcomes and per-checksum analysis records
// are written through as they are computed, and — when resuming — consulted
// before any decode or profile runs, so a warm re-run re-derives nothing it
// has seen before. See docs/persistence.md for the record formats.
type UniqueCache struct {
	keepGraphs bool

	// st, when non-nil, is the persistence backing; resume controls
	// whether existing records are consulted (false = write-only).
	st     *store.Store
	resume bool

	// Work counters (atomic): decodes/profiles actually executed this
	// process, and warm hits served from the persistent store.
	decodes      atomic.Int64
	profiles     atomic.Int64
	warmPayloads atomic.Int64
	warmAnalyses atomic.Int64

	// payloads records each payload hash's decode outcome; analyses
	// records each checksum's analysis, whether computed, loaded by get or
	// loaded by HasAnalysis's trust check.
	payloads flight[extract.PayloadHash, payloadOutcome]
	analyses flight[graph.Checksum, *uniqueData]

	mu sync.Mutex
	// seeds holds the decoded graphs the payload front door parks for
	// checksums whose analysis is not recorded yet. A seed keeps its
	// source buffer (often a whole APK) alive, so recording the analysis
	// drops it; an abandoned (cancelled) attempt leaves it for the next.
	seeds map[graph.Checksum]*graph.Graph
	// persistErr records the first write-through failure; surfaced via
	// PersistErr so a study run fails loudly instead of silently producing
	// a partial cache.
	persistErr error
}

// payloadOutcome is one payload hash's recorded decode outcome.
type payloadOutcome struct {
	sum graph.Checksum
	ok  bool
}

// NewUniqueCache creates an empty in-memory cache. keepGraphs controls
// whether the decoded graph is retained for benchmarking (costs memory at
// scale).
func NewUniqueCache(keepGraphs bool) *UniqueCache {
	uc := &UniqueCache{keepGraphs: keepGraphs, seeds: map[graph.Checksum]*graph.Graph{}}
	uc.analyses.onRecord = uc.dropSeed
	return uc
}

// NewPersistentUniqueCache creates a cache backed by an on-disk study
// store. Every payload outcome and per-checksum analysis computed through
// the cache is written through to st; with resume true, existing records
// are loaded instead of recomputed, so byte-identical payloads from an
// earlier run skip graph decode and profiling entirely.
func NewPersistentUniqueCache(keepGraphs bool, st *store.Store, resume bool) *UniqueCache {
	uc := NewUniqueCache(keepGraphs)
	uc.st = st
	uc.resume = resume
	return uc
}

// CacheStats summarises the cache's work split: what was computed in this
// process versus served warm from the persistent store.
type CacheStats struct {
	// Decodes counts graph decodes executed (payload-cache misses).
	Decodes int64
	// Profiles counts per-checksum analyses computed.
	Profiles int64
	// WarmPayloadHits counts payload outcomes loaded from disk.
	WarmPayloadHits int64
	// WarmAnalysisHits counts analysis records loaded from disk.
	WarmAnalysisHits int64
	// Payloads / Checksums count distinct keys seen in this process.
	Payloads  int
	Checksums int
}

// Stats returns the cache's current work counters.
func (uc *UniqueCache) Stats() CacheStats {
	return CacheStats{
		Decodes:          uc.decodes.Load(),
		Profiles:         uc.profiles.Load(),
		WarmPayloadHits:  uc.warmPayloads.Load(),
		WarmAnalysisHits: uc.warmAnalyses.Load(),
		Payloads:         uc.PayloadCount(),
		Checksums:        uc.Size(),
	}
}

// PersistErr returns the first write-through persistence failure, if any.
// Loads degrade to cache misses on error, but a failed write means the
// store is incomplete — runs that persist must surface this.
func (uc *UniqueCache) PersistErr() error {
	uc.mu.Lock()
	defer uc.mu.Unlock()
	return uc.persistErr
}

func (uc *UniqueCache) notePersistErr(err error) {
	if err == nil {
		return
	}
	uc.mu.Lock()
	if uc.persistErr == nil {
		uc.persistErr = err
	}
	uc.mu.Unlock()
}

// Size returns the number of distinct checksums analysed (or in flight)
// so far.
func (uc *UniqueCache) Size() int { return uc.analyses.len() }

// PayloadCount returns the number of distinct payload hashes seen so far
// (valid and failed decodes both count; so does one in flight).
func (uc *UniqueCache) PayloadCount() int { return uc.payloads.len() }

// Payload implements extract.DecodeCache: the first caller for a given
// payload hash runs decode and the outcome (checksum on success, failure
// otherwise) is recorded; every other caller — concurrent or later, any
// worker, either snapshot — gets the recorded outcome without decoding.
// Successful decodes seed the checksum's analysis so the graph is
// available to it even though cache-hit extractions never carry graphs.
//
// ctx bounds both the wait on a concurrent decode and the decode itself.
// A cancelled attempt returns ctx's error and records nothing — in memory
// or on disk — so cancellation can never masquerade as a failed
// validation (the no-poison rule warm resumes depend on).
func (uc *UniqueCache) Payload(ctx context.Context, h extract.PayloadHash, decode func() (*graph.Graph, error)) (graph.Checksum, bool, error) {
	out, err := uc.payloads.do(ctx, h, func() (payloadOutcome, error) {
		return uc.computePayload(ctx, h, decode)
	})
	return out.sum, out.ok, err
}

// computePayload resolves one payload outcome: the persisted record when
// resuming, otherwise a real decode. The returned error is non-nil only
// for context cancellation; a decode failure is a recorded (ok=false)
// outcome, not an error.
func (uc *UniqueCache) computePayload(ctx context.Context, h extract.PayloadHash, decode func() (*graph.Graph, error)) (payloadOutcome, error) {
	// Warm path: a persisted outcome for these exact bytes replaces the
	// decode. A successful outcome is only trusted when its analysis
	// record is still loadable too: payload records are written at decode
	// time, analysis records at analysis time, so a crash between the two
	// (or a codec bump that invalidates the analysis layout) leaves a
	// payload record pointing at an analysis that cannot be rebuilt — that
	// hash must decode again.
	if uc.st != nil && uc.resume {
		if out, ok := uc.loadPayloadRecord(h); ok && (!out.ok || uc.warmAnalysis(ctx, out.sum) == nil) {
			uc.warmPayloads.Add(1)
			metWarmPayloadHits.Inc()
			return out, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return payloadOutcome{}, err // cancelled before the decode started
	}
	uc.decodes.Add(1)
	metDecodes.Inc()
	g, err := decode()
	if err != nil {
		if errs.IsContextError(err) {
			return payloadOutcome{}, err // aborted decode: the outcome is unknown
		}
		uc.persistPayloadRecord(h, payloadRecord{V: persistCodecVersion, OK: false})
		return payloadOutcome{}, nil // the payload does not validate
	}
	sum := graph.ModelChecksum(g)
	uc.seedEntry(sum, g)
	uc.persistPayloadRecord(h, payloadRecord{V: persistCodecVersion, OK: true, Checksum: sum})
	return payloadOutcome{sum: sum, ok: true}, nil
}

// seedEntry parks a decoded graph for its checksum's analysis, unless
// that analysis is already recorded. First seed wins (same checksum means
// byte-identical graph content, so any instance serves). The check and
// the park share uc.mu with dropSeed, which runs after every record, so
// no seed outlives its checksum's record.
func (uc *UniqueCache) seedEntry(sum graph.Checksum, g *graph.Graph) {
	uc.mu.Lock()
	if _, ok := uc.seeds[sum]; !ok && !uc.analyses.recorded(sum) {
		uc.seeds[sum] = g
	}
	uc.mu.Unlock()
}

// dropSeed releases a checksum's seed once its analysis is recorded, so
// it stops pinning the source APK buffer.
func (uc *UniqueCache) dropSeed(sum graph.Checksum) {
	uc.mu.Lock()
	delete(uc.seeds, sum)
	uc.mu.Unlock()
}

// get returns the analysis results for the model, computing them on first
// sight of its checksum. Models sharing a checksum are byte-identical by
// construction, so any instance can serve as the compute input: the
// model's own graph when extraction decoded in place, or the seed the
// payload front door parked. ctx bounds the wait on a concurrent
// analysis; a cancelled attempt is abandoned (seed kept) rather than
// recorded, so cancellation never poisons a checksum.
func (uc *UniqueCache) get(ctx context.Context, m extract.Model) (*uniqueData, error) {
	return uc.analyses.do(ctx, m.Checksum, func() (*uniqueData, error) {
		return uc.computeAnalysis(ctx, m)
	})
}

// HasAnalysis reports whether the checksum's analysis can be served
// without a graph: recorded in this process, or loadable from the
// persistent store under the current codec — including its graph blob,
// verified against the checksum, when this cache retains graphs and the
// record flags one. The report-level warm path uses it to refuse
// persisted reports whose models can no longer be resolved (crashed
// writer, codec bump, corrupt blob): such reports re-extract and
// self-heal instead of failing the study. The check is the warm load
// itself: a loaded analysis is recorded, so a warm run reads each record
// once, and a miss records nothing.
func (uc *UniqueCache) HasAnalysis(sum graph.Checksum) bool {
	return uc.warmAnalysis(context.Background(), sum) == nil
}

// warmAnalysis is a warm-only attempt on the checksum's flight: it
// returns nil when the analysis is recorded or loads from the store, and
// errMiss or ctx's error otherwise.
func (uc *UniqueCache) warmAnalysis(ctx context.Context, sum graph.Checksum) error {
	if uc.st == nil || !uc.resume || !validChecksum(sum) {
		return errMiss
	}
	_, err := uc.analyses.do(ctx, sum, func() (*uniqueData, error) {
		return uc.loadAnalysisRecord(sum)
	})
	return err
}

// computeAnalysis derives one checksum's uniqueData: warm record load when
// resuming, otherwise profile/classify/fingerprint over the graph in hand
// (the extraction's own or the payload seed).
func (uc *UniqueCache) computeAnalysis(ctx context.Context, m extract.Model) (*uniqueData, error) {
	g := m.Graph
	if g == nil {
		uc.mu.Lock()
		g = uc.seeds[m.Checksum]
		uc.mu.Unlock()
	}
	if g == nil && uc.st != nil && uc.resume {
		// Warm path: the checksum was analysed by an earlier run — rebuild
		// the per-checksum data from its persisted record without a graph
		// in hand.
		if d, err := uc.loadAnalysisRecord(m.Checksum); err == nil {
			return d, nil
		}
	}
	if g == nil {
		return nil, fmt.Errorf("analysis: no graph available for checksum %s (report produced with a different cache?)", m.Checksum)
	}
	if err := ctx.Err(); err != nil {
		return nil, err // cancelled before the profile started
	}
	uc.profiles.Add(1)
	metProfiles.Inc()
	prof, err := graph.ProfileGraph(g)
	if err != nil {
		return nil, err
	}
	task, _ := ClassifyTask(g)
	d := &uniqueData{
		name:      g.Name,
		task:      task,
		arch:      FingerprintArch(g),
		modality:  g.InferModality(),
		profile:   prof,
		layerSums: graph.WeightedLayerChecksums(g),
		weights:   graph.CollectWeightStats(g),
	}
	if uc.keepGraphs {
		// Decoded graphs borrow weight bytes from the file/APK buffer
		// they were read from; retaining one beyond this call requires
		// owning the bytes (the copy-on-retain rule).
		g.DetachWeights()
		d.graph = g
	}
	// Write through after the data is complete: a payload record is
	// only trusted warm when this record exists, so persisting the
	// analysis last keeps crashed runs consistent.
	uc.persistAnalysisRecord(m.Checksum, d, g)
	return d, nil
}

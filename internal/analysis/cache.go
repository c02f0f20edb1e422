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
// back the Unique records of any number of corpus shards and snapshots.
// Framework is deliberately absent: the checksum hashes the decoded
// graph+weights, so one checksum can ship under several formats (the
// Section 6.3 tflite+dlc twins) and the field would be first-winner
// nondeterministic here; corpora assign it from their first record in
// deterministic order instead.
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

// UniqueCache deduplicates per-checksum model analysis across corpus
// shards and snapshots. The paper's two crawls overlap heavily (duplicate
// checksums across 2020 and 2021), so a shared cache profiles, classifies
// and fingerprints each distinct model exactly once, no matter how many
// shards or snapshots ingest it concurrently.
//
// The cache also implements extract.DecodeCache — the hash-before-decode
// front door: extraction content-hashes a candidate file-set and asks
// Payload whether those exact bytes were decoded before; only first
// sightings pay for a graph decode. Decoded graphs are parked on the
// checksum entry (the "seed") until the entry's analysis runs, then
// released — so borrowed weight bytes never pin an APK buffer beyond the
// first profile.
//
// Computation is single-flight at both layers: the first ingester of a
// payload hash decodes, the first ingester of a checksum profiles; every
// concurrent ingester of the same key waits. Waits are cancellable: a
// waiter whose ctx expires unblocks with the context error. Cancellation
// never poisons an entry — an attempt cut short by ctx is abandoned (the
// entry returns to idle, nothing is persisted), so the next attempt, in
// this run or a warm resume, computes the real outcome. All methods are
// safe for concurrent use.
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

	mu       sync.Mutex
	entries  map[graph.Checksum]*cacheEntry
	payloads map[extract.PayloadHash]*payloadEntry
	// verifiedSums memoises HasAnalysis verdicts (is the persisted
	// analysis record for this checksum loadable under the current
	// codec?); successful persists and loads flip negatives to true.
	verifiedSums map[graph.Checksum]bool
	// verified holds the records HasAnalysis decoded for checksums whose
	// analysis has not run yet, so that the warm load which follows reads
	// and decodes each record once; the checksum's analysis drops it,
	// whichever path that analysis takes.
	verified map[graph.Checksum]analysisWire
	// verifyMu serialises HasAnalysis's first read of each checksum, so
	// that reports checked concurrently still read each record once.
	verifyMu sync.Mutex
	// persistErr records the first write-through failure; surfaced via
	// PersistErr so a study run fails loudly instead of silently producing
	// a partial cache.
	persistErr error
}

// single-flight entry states (guarded by the cache mutex). Entries move
// idle -> running -> done; a cancelled attempt moves running -> idle and
// closes its flight channel so waiters re-examine the state.
const (
	entryIdle = iota
	entryRunning
	entryDone
)

type cacheEntry struct {
	state  int
	flight chan struct{} // non-nil while running; closed on completion or abandon
	data   *uniqueData
	err    error
	// seed holds the decoded graph registered by the payload front door
	// until the single-flight analysis consumes it. It keeps the source
	// buffer (often a whole APK) alive, so the analysis clears it as soon
	// as it has run; an abandoned (cancelled) attempt keeps it for the
	// next one.
	seed *graph.Graph
}

type payloadEntry struct {
	state  int
	flight chan struct{}
	sum    graph.Checksum
	ok     bool
}

// NewUniqueCache creates an empty in-memory cache. keepGraphs controls
// whether the decoded graph is retained for benchmarking (costs memory at
// scale).
func NewUniqueCache(keepGraphs bool) *UniqueCache {
	return &UniqueCache{
		keepGraphs: keepGraphs,
		entries:    map[graph.Checksum]*cacheEntry{},
		payloads:   map[extract.PayloadHash]*payloadEntry{},
	}
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

// Size returns the number of distinct checksums analysed so far.
func (uc *UniqueCache) Size() int {
	uc.mu.Lock()
	defer uc.mu.Unlock()
	return len(uc.entries)
}

// PayloadCount returns the number of distinct payload hashes seen so far
// (valid and failed decodes both count).
func (uc *UniqueCache) PayloadCount() int {
	uc.mu.Lock()
	defer uc.mu.Unlock()
	return len(uc.payloads)
}

// Payload implements extract.DecodeCache: the first caller for a given
// payload hash runs decode and the outcome (checksum on success, failure
// otherwise) is recorded; every other caller — concurrent or later, any
// shard, either snapshot — gets the recorded outcome without decoding.
// Successful decodes seed the checksum entry so the graph is available to
// the per-checksum analysis even though cache-hit extractions never carry
// graphs.
//
// ctx bounds both the wait on a concurrent decode and the decode itself.
// A cancelled attempt returns ctx's error and records nothing — in memory
// or on disk — so cancellation can never masquerade as a failed
// validation (the no-poison rule warm resumes depend on).
func (uc *UniqueCache) Payload(ctx context.Context, h extract.PayloadHash, decode func() (*graph.Graph, error)) (graph.Checksum, bool, error) {
	for {
		uc.mu.Lock()
		pe, ok := uc.payloads[h]
		if !ok {
			pe = &payloadEntry{}
			uc.payloads[h] = pe
		}
		switch pe.state {
		case entryDone:
			sum, valid := pe.sum, pe.ok
			uc.mu.Unlock()
			return sum, valid, nil
		case entryRunning:
			fl := pe.flight
			uc.mu.Unlock()
			select {
			case <-ctx.Done():
				return "", false, ctx.Err()
			case <-fl:
				metSingleflightWaits.Inc()
				// Outcome recorded, or the attempt was abandoned —
				// re-examine the state (and maybe become the new worker).
			}
		default: // idle: this caller computes
			pe.state = entryRunning
			pe.flight = make(chan struct{})
			fl := pe.flight
			uc.mu.Unlock()
			sum, valid, err := uc.computePayload(ctx, h, decode)
			uc.mu.Lock()
			pe.flight = nil
			if err != nil {
				// Cancelled mid-compute: abandon, don't record. The next
				// attempt (a live waiter or a resumed run) re-decodes.
				pe.state = entryIdle
				close(fl)
				uc.mu.Unlock()
				return "", false, err
			}
			pe.state = entryDone
			pe.sum, pe.ok = sum, valid
			close(fl)
			uc.mu.Unlock()
			return sum, valid, nil
		}
	}
}

// computePayload resolves one payload outcome: the persisted record when
// resuming, otherwise a real decode. The returned error is non-nil only
// for context cancellation; a decode failure is a recorded (ok=false)
// outcome, not an error.
func (uc *UniqueCache) computePayload(ctx context.Context, h extract.PayloadHash, decode func() (*graph.Graph, error)) (graph.Checksum, bool, error) {
	// Warm path: a persisted outcome for these exact bytes replaces the
	// decode. A successful outcome is only trusted when its analysis
	// record is still loadable too: payload records are written at decode
	// time, analysis records at analysis time, so a crash between the two
	// (or a codec bump that invalidates the analysis layout) leaves a
	// payload record pointing at an analysis that cannot be rebuilt — that
	// hash must decode again.
	if uc.st != nil && uc.resume {
		if rec, ok := uc.loadPayloadRecord(h); ok {
			if !rec.OK {
				uc.warmPayloads.Add(1)
				metWarmPayloadHits.Inc()
				return "", false, nil
			}
			if uc.HasAnalysis(rec.Checksum) {
				uc.warmPayloads.Add(1)
				metWarmPayloadHits.Inc()
				return rec.Checksum, true, nil
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return "", false, err // cancelled before the decode started
	}
	uc.decodes.Add(1)
	metDecodes.Inc()
	g, err := decode()
	if err != nil {
		if errs.IsContextError(err) {
			return "", false, err // aborted decode: the outcome is unknown
		}
		uc.persistPayloadRecord(h, payloadRecord{V: persistCodecVersion, OK: false})
		return "", false, nil // the payload does not validate
	}
	sum := graph.ModelChecksum(g)
	uc.seedEntry(sum, g)
	uc.persistPayloadRecord(h, payloadRecord{V: persistCodecVersion, OK: true, Checksum: sum})
	return sum, true, nil
}

// seedEntry parks a decoded graph on its checksum entry for the analysis
// pass to consume. First seed wins (same checksum means byte-identical
// graph content, so any instance serves).
func (uc *UniqueCache) seedEntry(sum graph.Checksum, g *graph.Graph) {
	uc.mu.Lock()
	e, ok := uc.entries[sum]
	if !ok {
		e = &cacheEntry{}
		uc.entries[sum] = e
	}
	if e.seed == nil {
		e.seed = g
	}
	uc.mu.Unlock()
}

// get returns the analysis results for the model, computing them on first
// sight of its checksum. Models sharing a checksum are byte-identical by
// construction, so any instance can serve as the compute input: the
// model's own graph when extraction decoded in place, or the seed the
// payload front door registered. ctx bounds the wait on a concurrent
// analysis; a cancelled attempt is abandoned (entry back to idle, seed
// kept) rather than recorded, so cancellation never poisons a checksum.
func (uc *UniqueCache) get(ctx context.Context, m extract.Model) (*uniqueData, error) {
	for {
		uc.mu.Lock()
		e, ok := uc.entries[m.Checksum]
		if !ok {
			e = &cacheEntry{}
			uc.entries[m.Checksum] = e
		}
		switch e.state {
		case entryDone:
			d, err := e.data, e.err
			uc.mu.Unlock()
			return d, err
		case entryRunning:
			fl := e.flight
			uc.mu.Unlock()
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-fl:
				metSingleflightWaits.Inc()
			}
		default: // idle: this caller computes
			e.state = entryRunning
			e.flight = make(chan struct{})
			fl := e.flight
			seed := e.seed
			uc.mu.Unlock()
			d, err := uc.computeAnalysis(ctx, m, seed)
			uc.mu.Lock()
			e.flight = nil
			if err != nil && errs.IsContextError(err) {
				e.state = entryIdle // abandoned; the seed stays for the next attempt
				close(fl)
				uc.mu.Unlock()
				return nil, err
			}
			e.state = entryDone
			e.data, e.err = d, err
			// The seed has served its purpose once the analysis ran;
			// release it so it stops pinning the source APK buffer, and
			// drop any record HasAnalysis kept for it.
			e.seed = nil
			delete(uc.verified, m.Checksum)
			close(fl)
			uc.mu.Unlock()
			return d, err
		}
	}
}

// computeAnalysis derives one checksum's uniqueData: warm record load when
// resuming, otherwise profile/classify/fingerprint over the graph in hand
// (the extraction's own or the payload seed).
func (uc *UniqueCache) computeAnalysis(ctx context.Context, m extract.Model, seed *graph.Graph) (*uniqueData, error) {
	g := m.Graph
	if g == nil {
		g = seed
	}
	if g == nil && uc.st != nil && uc.resume {
		// Warm path: the checksum was analysed by an earlier run — rebuild
		// the per-checksum data from its persisted record without a graph
		// in hand.
		if d, ok := uc.loadAnalysisRecord(m.Checksum); ok {
			uc.warmAnalyses.Add(1)
			metWarmAnalysisHits.Inc()
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

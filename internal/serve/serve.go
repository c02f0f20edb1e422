// Package serve exposes persisted studies over HTTP — the query side of
// the content-addressed study store. Everything it answers comes from
// disk: report tables re-render from persisted corpus snapshots, model
// lookups read per-checksum analysis records, and temporal diffs join any
// two persisted corpora. The crawler, extractor and analyser are never
// invoked; `gaugenn study -cache-dir` produces, `gaugenn serve` queries.
//
// Endpoints:
//
//	GET /healthz                      liveness + store census
//	GET /api/studies                  manifest listing (latest per study)
//	GET /api/studies/{id}             one study + per-snapshot dataset stats
//	GET /api/studies/{id}/tables      report tables (all, or ?name=table2.txt as text)
//	GET /api/models/{checksum}        per-model analysis summary
//	GET /api/diff?from=ID[:LABEL]&to=ID[:LABEL]   cross-study churn rows
//
// With a scheduler attached (WithScheduler), the server additionally
// executes studies — the write side (docs/serve.md has the full
// admission/quota/priority/drain contract and SSE resume protocol):
//
//	POST   /api/studies               submit a study spec; 202 + job, or 503/429 + Retry-After
//	GET    /api/jobs                  scheduler job listing
//	GET    /api/studies/{id}/status   one job's lifecycle snapshot
//	GET    /api/studies/{id}/events   resumable SSE event stream (Last-Event-ID cursor)
//	DELETE /api/studies/{id}          cancel a queued or running job
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/gaugenn/gaugenn/internal/analysis"
	"github.com/gaugenn/gaugenn/internal/core"
	"github.com/gaugenn/gaugenn/internal/errs"
	"github.com/gaugenn/gaugenn/internal/index"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/obs"
	"github.com/gaugenn/gaugenn/internal/sched"
	"github.com/gaugenn/gaugenn/internal/store"
)

// Server answers study queries from a persisted store and — when a
// scheduler is attached — accepts, streams and cancels study executions
// (see studies.go and docs/serve.md).
type Server struct {
	st *store.Store

	// corpora memoises decoded corpus snapshots by CAS key, for /tables
	// and index rebuilds.
	corpora *lru[*analysis.Corpus]
	// indexes memoises the per-snapshot query indexes (internal/index)
	// every other read answers from, by corpus CAS key.
	indexes *lru[*index.Index]
	// responses memoises rendered JSON reads by request-derived key: the
	// warm path replays bytes instead of re-rendering.
	responses *lru[response]

	// manifest caches the parsed study listing keyed by the manifest
	// file's (size, mtime), so /api/studies and reference resolution stop
	// reparsing manifest.jsonl per request (the log is append-only, so
	// any change moves the size).
	manifest struct {
		sync.Mutex
		size    int64
		mtime   time.Time
		entries []store.ManifestEntry
	}

	// fp caches the manifest fingerprint string that keys response-cache
	// entries for manifest-dependent endpoints. Kept separate from the
	// parsed-entries cache above: each memo validates (size, mtime)
	// independently, so refreshing one can never mark the other fresh.
	fp struct {
		sync.Mutex
		size  int64
		mtime time.Time
		s     string
	}

	// census memoises /healthz's store census for censusTTL, so load
	// balancer probes stop scaling with store size (the census walks
	// every blob shard directory when cold).
	censusTTL time.Duration
	census    struct {
		sync.Mutex
		at     time.Time
		counts map[string]int
	}

	// sch, when non-nil, enables the submission API.
	sch *sched.Scheduler
	// sseWriteTimeout bounds each SSE write so a stalled reader cannot
	// pin a handler goroutine.
	sseWriteTimeout time.Duration
}

// Option shapes a Server at construction.
type Option func(*Server)

// WithScheduler attaches a study scheduler, enabling POST /api/studies,
// the per-study SSE event stream, and DELETE cancellation.
func WithScheduler(sch *sched.Scheduler) Option {
	return func(s *Server) { s.sch = sch }
}

// WithSSEWriteTimeout bounds each SSE write (default 15s): a reader that
// stalls past it is disconnected and resumes with Last-Event-ID.
func WithSSEWriteTimeout(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.sseWriteTimeout = d
		}
	}
}

// WithCensusTTL sets how long /healthz reuses its memoised store census
// (default 2s; <= 0 keeps the default). Probes within the TTL cost no
// store I/O at all.
func WithCensusTTL(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.censusTTL = d
		}
	}
}

// New creates a server over an opened store.
func New(st *store.Store, opts ...Option) *Server {
	s := &Server{
		st:              st,
		corpora:         newLRU[*analysis.Corpus](corpusCacheSize, metCorpusEvictions, metCorpusResident),
		indexes:         newLRU[*index.Index](indexCacheSize, nil, metIndexResident),
		responses:       newLRU[response](responseCacheSize, nil, nil),
		censusTTL:       2 * time.Second,
		sseWriteTimeout: 15 * time.Second,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Handler returns the server's HTTP routes, each wrapped with request
// counting and latency observation under its pattern label.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	routes := map[string]http.HandlerFunc{
		"GET /healthz":                 s.handleHealth,
		"GET /api/studies":             s.handleStudies,
		"GET /api/studies/{id}":        s.handleStudy,
		"GET /api/studies/{id}/tables": s.handleTables,
		"GET /api/models/{checksum}":   s.handleModel,
		"GET /api/diff":                s.handleDiff,
	}
	if s.sch != nil {
		routes["POST /api/studies"] = s.handleSubmit
		routes["GET /api/studies/{id}/status"] = s.handleJobStatus
		routes["GET /api/studies/{id}/events"] = s.handleJobEvents
		routes["DELETE /api/studies/{id}"] = s.handleJobCancel
		routes["GET /api/jobs"] = s.handleJobs
	}
	for route, h := range routes {
		mux.HandleFunc(route, instrument(route, h))
	}
	return mux
}

// logf reports response-encoding failures; tests swap it to assert.
var logf = log.Printf

// writeJSON encodes v before any byte reaches the wire: an
// unmarshalable value becomes a clean 500 instead of a 200 with a
// truncated body and an unreportable late error, and a client that hung
// up mid-write is logged rather than silently dropped.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		logf("serve: encoding %T response: %v", v, err)
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(buf.Bytes()); err != nil {
		// Headers are sent; all that is left is to record the loss.
		logf("serve: writing %T response: %v", v, err)
	}
}

// writeErr answers with a JSON error. Handlers stamp validators before
// they can fail, so it strips them: a cache that stored a 404 or 500
// would keep it after the model appears or `fsck -fix` repairs the store,
// and a client revalidating with the ETag would get a 304 for the error.
func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Del("ETag")
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	counts, err := s.censusCounts()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	census := map[string]any{"status": "ok"}
	for k, n := range counts {
		census[k] = n
	}
	// The warm/cold cache gauges (set when a study run in this process
	// emits its CacheStats event) ride along so probes see the split
	// without scraping /metrics. They are in-memory and current even when
	// the counts above come from the memo.
	if gauges := obs.Default().GaugeSnapshot("gaugenn_study_"); len(gauges) > 0 {
		census["gauges"] = gauges
	}
	w.Header().Set("Cache-Control", "public, max-age=1")
	writeJSON(w, http.StatusOK, census)
}

// censusCounts returns the store census — study count plus per-kind blob
// counts — from a snapshot at most censusTTL old. The cold path walks
// every shard directory of four kinds; the memo makes probe cost
// independent of both probe rate and store size.
func (s *Server) censusCounts() (map[string]int, error) {
	s.census.Lock()
	defer s.census.Unlock()
	if s.census.counts != nil && time.Since(s.census.at) < s.censusTTL {
		return s.census.counts, nil
	}
	studies, err := s.studies()
	if err != nil {
		return nil, fmt.Errorf("reading manifest: %w", err)
	}
	counts := map[string]int{"studies": len(studies)}
	for kind, plural := range map[string]string{
		store.KindReport:   "reports",
		store.KindAnalysis: "analyses",
		store.KindPayload:  "payloads",
		store.KindCorpus:   "corpora",
	} {
		n, err := s.st.Count(kind)
		if err != nil {
			return nil, fmt.Errorf("counting %s: %w", kind, err)
		}
		counts[plural] = n
	}
	s.census.at = time.Now()
	s.census.counts = counts
	return counts, nil
}

// studies returns the manifest listing (latest entry per study), reparsed
// only when the manifest file's (size, mtime) moved.
func (s *Server) studies() ([]store.ManifestEntry, error) {
	size, mtime, ok := s.st.ManifestInfo()
	if !ok {
		return nil, nil
	}
	s.manifest.Lock()
	defer s.manifest.Unlock()
	if s.manifest.entries != nil && s.manifest.size == size && s.manifest.mtime.Equal(mtime) {
		return s.manifest.entries, nil
	}
	entries, err := s.st.Studies()
	if err != nil {
		return nil, err
	}
	s.manifest.size, s.manifest.mtime, s.manifest.entries = size, mtime, entries
	return entries, nil
}

// manifestFP returns a cheap fingerprint of the manifest file — its
// (size, mtime) rendered once and reused until the file moves. Response
// cache keys fold it in so every manifest-dependent entry is invalidated
// by any manifest append, without hashing anything per request.
func (s *Server) manifestFP() string {
	size, mtime, ok := s.st.ManifestInfo()
	if !ok {
		return ""
	}
	s.fp.Lock()
	defer s.fp.Unlock()
	if s.fp.s != "" && s.fp.size == size && s.fp.mtime.Equal(mtime) {
		return s.fp.s
	}
	s.fp.size, s.fp.mtime = size, mtime
	s.fp.s = strconv.FormatInt(size, 10) + ":" + strconv.FormatInt(mtime.UnixNano(), 10)
	return s.fp.s
}

// study resolves one study ID against the cached manifest listing.
func (s *Server) study(id string) (store.ManifestEntry, bool, error) {
	entries, err := s.studies()
	if err != nil {
		return store.ManifestEntry{}, false, err
	}
	for _, e := range entries {
		if e.ID == id {
			return e, true, nil
		}
	}
	return store.ManifestEntry{}, false, nil
}

func (s *Server) handleStudies(w http.ResponseWriter, r *http.Request) {
	// The listing is a pure function of the manifest file: the warm path
	// is one fingerprint reuse and one cache probe.
	ck := "studies\x00" + s.manifestFP()
	if s.served(w, r, ck) {
		return
	}
	studies, err := s.studies()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "reading manifest: %v", err)
		return
	}
	if studies == nil {
		studies = []store.ManifestEntry{}
	}
	// Revalidation stays content-addressed: the ETag hashes the entries'
	// IDs and snapshot keys, not the file metadata keying the cache.
	parts := make([]string, 0, 2*len(studies))
	for _, e := range studies {
		parts = append(parts, e.ID)
		for _, label := range []string{"2020", "2021"} {
			parts = append(parts, e.Snapshots[label])
		}
	}
	etag := etagOf(append([]string{"studies"}, parts...)...)
	if cacheHit(w, r, etag) {
		return
	}
	s.memoJSON(w, ck, etag, studies)
}

// studySnapshot is the per-snapshot detail of a study listing.
type studySnapshot struct {
	CorpusKey string                `json:"corpus_key"`
	Dataset   analysis.DatasetStats `json:"dataset"`
}

func (s *Server) handleStudy(w http.ResponseWriter, r *http.Request) {
	// Keyed by study ID + manifest fingerprint: a re-run study rewrites
	// the manifest, which moves the fingerprint and misses the cache.
	ck := "study\x00" + r.PathValue("id") + "\x00" + s.manifestFP()
	if s.served(w, r, ck) {
		return
	}
	entry, ok, err := s.study(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "reading manifest: %v", err)
		return
	}
	if !ok {
		// Not a persisted study: it may be a scheduler job that has not
		// (or will never) put a manifest entry down.
		if s.sch != nil {
			if j, jerr := s.sch.Job(r.PathValue("id")); jerr == nil {
				writeJSON(w, http.StatusOK, j)
				return
			}
		}
		writeErr(w, http.StatusNotFound, "unknown study %q", r.PathValue("id"))
		return
	}
	// The response is a pure function of the study's snapshot keys (plus
	// the index codec, which decides the dataset-stats representation).
	keys := make([]string, 0, len(entry.Snapshots))
	for _, label := range sortedLabels(entry.Snapshots) {
		keys = append(keys, entry.Snapshots[label])
	}
	etag := etagOf(append([]string{"study", entry.ID}, keys...)...)
	if cacheHit(w, r, etag) {
		return
	}
	snaps := map[string]studySnapshot{}
	for label, key := range entry.Snapshots {
		ix, err := s.index(r.Context(), key)
		if err != nil {
			// Through the shared mapper so cancellation and corruption get
			// the same statuses here as on /tables and /diff.
			s.writeRefErr(w, err)
			return
		}
		snaps[label] = studySnapshot{CorpusKey: key, Dataset: ix.Dataset}
	}
	s.memoJSON(w, ck, etag, map[string]any{"study": entry, "snapshots": snaps})
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	entry, ok, err := s.study(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "reading manifest: %v", err)
		return
	}
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown study %q", r.PathValue("id"))
		return
	}
	// Tables re-render from the two corpus snapshots; the name filter
	// changes the representation, so it is part of the ETag.
	if cacheHit(w, r, etagOf("tables", entry.Snapshots["2020"], entry.Snapshots["2021"], r.URL.Query().Get("name"))) {
		return
	}
	c20, err := s.labelledCorpus(r.Context(), entry, "2020")
	if err != nil {
		s.writeRefErr(w, err)
		return
	}
	c21, err := s.labelledCorpus(r.Context(), entry, "2021")
	if err != nil {
		s.writeRefErr(w, err)
		return
	}
	tables := core.StudyTables(c20, c21)
	if name := r.URL.Query().Get("name"); name != "" {
		text, ok := tables[name]
		if !ok {
			writeErr(w, http.StatusNotFound, "unknown table %q (have %s)", name, strings.Join(core.TableNames(), ", "))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, text)
		return
	}
	writeJSON(w, http.StatusOK, tables)
}

// codecVersion is index.CodecVersion pre-rendered for ETag derivation.
var codecVersion = strconv.Itoa(index.CodecVersion)

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	sum := graph.Checksum(r.PathValue("checksum"))
	// The summary is a pure function of the model's content (the checksum
	// names it) and the index codec's notion of a summary — so the cache
	// key needs no manifest fingerprint; a checksum's entry never stales.
	ck := "model\x00" + string(sum)
	if s.served(w, r, ck) {
		return
	}
	etag := etagOf("model", string(sum), codecVersion)
	if cacheHit(w, r, etag) {
		return
	}
	if ms, ok := s.modelFromIndexes(r.Context(), sum); ok {
		s.memoJSON(w, ck, etag, ms)
		return
	}
	// The fallback for checksums no persisted study covers (e.g. records
	// left by a cancelled run): one analysis record read, decoding the
	// full per-layer profile.
	ms, ok, err := analysis.LoadModelSummary(s.st, sum)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "loading model: %v", err)
		return
	}
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown model checksum %q", sum)
		return
	}
	writeJSON(w, http.StatusOK, ms)
}

// modelFromIndexes probes every persisted snapshot's index for the
// checksum — one binary search per index, no record or corpus decode.
func (s *Server) modelFromIndexes(ctx context.Context, sum graph.Checksum) (*analysis.ModelSummary, bool) {
	studies, err := s.studies()
	if err != nil {
		return nil, false
	}
	for _, e := range studies {
		for _, label := range sortedLabels(e.Snapshots) {
			ix, err := s.index(ctx, e.Snapshots[label])
			if err != nil {
				continue
			}
			if ms, ok := ix.Lookup(sum); ok {
				return ms, true
			}
		}
	}
	return nil, false
}

// diffResponse is the cross-study churn answer.
type diffResponse struct {
	From string              `json:"from"`
	To   string              `json:"to"`
	Rows []analysis.ChurnRow `json:"rows"`
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	// Keyed by the raw query (argument spellings that normalise to the
	// same diff just occupy separate entries) + manifest fingerprint,
	// since the study→snapshot-key mapping lives in the manifest.
	ck := "diff\x00" + r.URL.RawQuery + "\x00" + s.manifestFP()
	if s.served(w, r, ck) {
		return
	}
	q := r.URL.Query()
	fromArg, toArg := q.Get("from"), q.Get("to")
	if fromArg == "" || toArg == "" {
		writeErr(w, http.StatusBadRequest, "diff needs from=STUDY[:LABEL] and to=STUDY[:LABEL]")
		return
	}
	fromKey, err := s.refKey(fromArg, "2020")
	if err != nil {
		s.writeRefErr(w, err)
		return
	}
	toKey, err := s.refKey(toArg, "2021")
	if err != nil {
		s.writeRefErr(w, err)
		return
	}
	// The churn rows are a pure function of the two corpus snapshots; the
	// arguments ride along because they echo in the response body.
	etag := etagOf("diff", fromArg, toArg, fromKey, toKey)
	if cacheHit(w, r, etag) {
		return
	}
	// Joins the two snapshots' category-membership bitsets; the rows equal
	// analysis.TemporalDiff over the decoded corpora (index.Diff's
	// contract, pinned by TestIndexedResponsesMatchOracles).
	oldIx, err := s.index(r.Context(), fromKey)
	if err != nil {
		s.writeRefErr(w, err)
		return
	}
	newIx, err := s.index(r.Context(), toKey)
	if err != nil {
		s.writeRefErr(w, err)
		return
	}
	rows := index.Diff(oldIx, newIx)
	if rows == nil {
		rows = []analysis.ChurnRow{}
	}
	s.memoJSON(w, ck, etag, diffResponse{From: fromArg, To: toArg, Rows: rows})
}

// refKey resolves a "STUDY[:LABEL]" reference to its corpus CAS key.
func (s *Server) refKey(ref, defaultLabel string) (string, error) {
	id, label := ref, defaultLabel
	if i := strings.LastIndex(ref, ":"); i >= 0 {
		id, label = ref[:i], ref[i+1:]
	}
	entry, ok, err := s.study(id)
	if err != nil {
		return "", err
	}
	if !ok {
		return "", &refError{fmt.Sprintf("unknown study %q", id)}
	}
	key, ok := entry.Snapshots[label]
	if !ok {
		return "", &refError{fmt.Sprintf("study %s has no snapshot %q", entry.ID, label)}
	}
	return key, nil
}

// writeRefErr maps corpus-resolution failures onto HTTP statuses: a bad
// reference (unknown study, missing snapshot label) is the client's 404,
// a cancelled request context gets 499-style treatment (nobody is
// reading, but the handler must still terminate the response), a corrupt
// store blob is a 500 flagged as such, anything else is store I/O.
func (s *Server) writeRefErr(w http.ResponseWriter, err error) {
	if _, notFound := err.(*refError); notFound {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	if errs.IsContextError(err) {
		writeErr(w, http.StatusServiceUnavailable, "request cancelled: %v", err)
		return
	}
	if errors.Is(err, errs.ErrStoreCorrupt) {
		// Machine-readable repair hint: operators (and probes) can match
		// the header without parsing the error text.
		w.Header().Set("Gaugenn-Hint", "store corrupt; audit and repair with `gaugenn fsck -cache-dir DIR -fix`")
		writeErr(w, http.StatusInternalServerError, "store corrupt: %v", err)
		return
	}
	writeErr(w, http.StatusInternalServerError, "%v", err)
}

func sortedLabels(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// refError marks a corpus reference the caller got wrong (vs. store I/O).
type refError struct{ msg string }

func (e *refError) Error() string { return e.msg }

func (s *Server) labelledCorpus(ctx context.Context, entry store.ManifestEntry, label string) (*analysis.Corpus, error) {
	key, ok := entry.Snapshots[label]
	if !ok {
		return nil, &refError{fmt.Sprintf("study %s has no snapshot %q", entry.ID, label)}
	}
	return s.corpus(ctx, key)
}

// corpus loads (or reuses) one persisted corpus snapshot by CAS key. ctx
// is the request's context: a client that hung up skips the (potentially
// hundreds-of-MB) decode instead of memoising work nobody will read;
// cached hits are served regardless, since they cost nothing.
func (s *Server) corpus(ctx context.Context, key string) (*analysis.Corpus, error) {
	if c, ok := s.corpora.get(key); ok {
		return c, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	blob, ok, err := s.st.Get(store.KindCorpus, key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("corpus blob %s missing (manifest out of sync?)", key)
	}
	if err := ctx.Err(); err != nil {
		return nil, err // client gone: skip the decode
	}
	// Counted only when a decode actually happens: the warm-path contract
	// (indexed queries never decode a corpus) is asserted against this.
	metCorpusDecodes.Inc()
	c, err := analysis.DecodeCorpus(blob)
	if err != nil {
		// The blob exists but does not decode: the store itself is damaged
		// (torn write, codec mismatch), not the request.
		return nil, fmt.Errorf("decoding corpus %s: %w: %w", key, errs.ErrStoreCorrupt, err)
	}
	s.corpora.add(key, c)
	return c, nil
}

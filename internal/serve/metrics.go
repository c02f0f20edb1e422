package serve

import (
	"net/http"
	"time"

	"github.com/gaugenn/gaugenn/internal/obs"
)

// Request-level series. Handles are resolved per route at Handler()
// build time, so the per-request path is an in-flight inc/dec, one
// counter add and one histogram observation.
var metInFlight = obs.Default().Gauge("gaugenn_serve_in_flight",
	"Requests currently being handled by the query API.")

// Corpus-memoisation residency series (see Server.corpora): operators watch
// evictions climb to see cache pressure before it becomes tail latency.
var (
	metCorpusEvictions = obs.Default().Counter("gaugenn_serve_corpus_evictions_total",
		"Decoded corpus snapshots evicted from the bounded memoisation cache.")
	metCorpusResident = obs.Default().Gauge("gaugenn_serve_resident_corpora",
		"Decoded corpus snapshots currently resident in the memoisation cache.")
)

// Query-engine series: decodes should flatline once every snapshot's
// index is persisted (the warm path never decodes a corpus); lazy index
// builds appearing on a long-running server mean index blobs are being
// lost or corrupted under it.
var (
	metCorpusDecodes = obs.Default().Counter("gaugenn_serve_corpus_decodes_total",
		"Corpus snapshots decoded by the query path (cold /tables loads, index rebuilds).")
	metIndexBuilds = obs.Default().Counter("gaugenn_serve_index_builds_total",
		"Query indexes rebuilt lazily from a corpus because the persisted blob was absent or invalid.")
	metIndexResident = obs.Default().Gauge("gaugenn_serve_resident_indexes",
		"Query indexes currently resident in the memoisation cache.")
)

// instrument wraps one route's handler with request counting and latency
// observation under the route's pattern label.
func instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	requests := obs.Default().Counter("gaugenn_serve_requests_total",
		"Query API requests handled, by route pattern.",
		obs.Label{Name: "route", Value: route})
	latency := obs.Default().Histogram("gaugenn_serve_request_seconds",
		"Query API request latency in seconds, by route pattern.",
		nil, obs.Label{Name: "route", Value: route})
	return func(w http.ResponseWriter, r *http.Request) {
		metInFlight.Inc()
		start := time.Now()
		defer func() {
			latency.ObserveDuration(time.Since(start))
			metInFlight.Dec()
			requests.Inc()
		}()
		h(w, r)
	}
}

package store

import "github.com/gaugenn/gaugenn/internal/obs"

// Per-kind CAS traffic series. Children are resolved once at package
// init into plain maps keyed by kind, so the Put/Get hot paths do a map
// read of an interned constant string plus one atomic add — no label
// rendering, no registry lock.
var (
	metPuts       = perKind("gaugenn_store_puts_total", "Blobs written to the CAS, by kind.")
	metGets       = perKind("gaugenn_store_gets_total", "Blob reads that found their key, by kind.")
	metGetMisses  = perKind("gaugenn_store_get_misses_total", "Blob reads that missed, by kind.")
	metSealBroken = obs.Default().Counter("gaugenn_store_seal_failures_total",
		"Sealed records rejected because their digest no longer matched the body.")
)

// perKind registers one child per blob kind under name.
func perKind(name, help string) map[string]*obs.Counter {
	m := make(map[string]*obs.Counter, len(kinds))
	for _, kind := range kinds {
		m[kind] = obs.Default().Counter(name, help, obs.Label{Name: "kind", Value: kind})
	}
	return m
}

// countKind bumps c's child for kind; unknown kinds (impossible past
// checkRef) are dropped rather than registered on the hot path.
func countKind(c map[string]*obs.Counter, kind string) {
	if m, ok := c[kind]; ok {
		m.Inc()
	}
}

package serve

import (
	"container/list"
	"sync"

	"github.com/gaugenn/gaugenn/internal/obs"
)

// Residency bounds of the server's memoisations (entries, not bytes).
// Every key is a content hash or a request-derived string that pins all
// of a response's inputs, so entries never go stale; the bounds exist
// only so a store that accumulates studies cannot grow the process
// without limit.
const (
	// corpusCacheSize covers a handful of studies' snapshot pairs while a
	// crawl-everything tenant still cannot pin the process's memory with
	// decoded corpora (every record and unique of a snapshot).
	corpusCacheSize = 16
	// indexCacheSize is generous: indexes are columns and bitsets, orders
	// of magnitude smaller than decoded corpora.
	indexCacheSize = 256
	// responseCacheSize bounds rendered bodies, which are small:
	// summaries, churn rows and listings, never /tables renders.
	responseCacheSize = 1024
)

// lru is a bounded least-recently-used map from string keys to values,
// safe for concurrent use. Beyond max entries, add evicts the coldest
// one. The optional metric handles export cache pressure on /metrics:
// evictions counts entries evicted and resident tracks the entry count.
type lru[V any] struct {
	mu        sync.Mutex
	max       int
	order     *list.List // front = most recently used; values are *lruEntry[V]
	items     map[string]*list.Element
	evictions *obs.Counter
	resident  *obs.Gauge
}

type lruEntry[V any] struct {
	key string
	val V
}

// newLRU returns an empty cache holding at most max entries. Either
// metric handle may be nil.
func newLRU[V any](max int, evictions *obs.Counter, resident *obs.Gauge) *lru[V] {
	return &lru[V]{
		max:       max,
		order:     list.New(),
		items:     map[string]*list.Element{},
		evictions: evictions,
		resident:  resident,
	}
}

// get returns the value for key, refreshing its recency.
func (l *lru[V]) get(key string) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// add inserts or replaces key's value as the most recently used entry,
// evicting the least recently used ones beyond capacity.
func (l *lru[V]) add(key string, v V) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[key]; ok {
		l.order.MoveToFront(el)
		el.Value.(*lruEntry[V]).val = v
	} else {
		l.items[key] = l.order.PushFront(&lruEntry[V]{key: key, val: v})
	}
	for len(l.items) > l.max {
		oldest := l.order.Back()
		l.order.Remove(oldest)
		delete(l.items, oldest.Value.(*lruEntry[V]).key)
		if l.evictions != nil {
			l.evictions.Inc()
		}
	}
	if l.resident != nil {
		l.resident.SetInt(int64(len(l.items)))
	}
}

// len reports the resident entry count.
func (l *lru[V]) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}

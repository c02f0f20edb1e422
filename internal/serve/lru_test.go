package serve

import (
	"fmt"
	"testing"

	"github.com/gaugenn/gaugenn/internal/obs"
)

// TestLRUEvictsLeastRecentlyUsed: get refreshes recency, so the entry
// evicted is the least recently used one, not the oldest inserted.
func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	l := newLRU[int](2, nil, nil)
	l.add("a", 1)
	l.add("b", 2)
	if v, ok := l.get("a"); !ok || v != 1 {
		t.Fatalf("get(a) = %d, %v", v, ok)
	}
	l.add("c", 3) // b is now the coldest
	if _, ok := l.get("b"); ok {
		t.Fatal("b survived: eviction is FIFO, not LRU")
	}
	for key, want := range map[string]int{"a": 1, "c": 3} {
		if v, ok := l.get(key); !ok || v != want {
			t.Fatalf("get(%s) = %d, %v; want %d", key, v, ok, want)
		}
	}
}

// TestLRUReAddReplaces: re-adding a resident key replaces its value and
// refreshes it without evicting anything.
func TestLRUReAddReplaces(t *testing.T) {
	evictions := obs.NewRegistry().Counter("evictions_total", "")
	l := newLRU[string](2, evictions, nil)
	l.add("a", "old")
	l.add("b", "b")
	l.add("a", "new")
	if l.len() != 2 || evictions.Value() != 0 {
		t.Fatalf("re-add: len %d, evictions %d; want 2, 0", l.len(), evictions.Value())
	}
	if v, _ := l.get("a"); v != "new" {
		t.Fatalf("get(a) = %q after re-add, want new", v)
	}
	l.add("c", "c") // the re-add refreshed a, so b goes
	if _, ok := l.get("b"); ok {
		t.Fatal("re-add did not refresh recency")
	}
}

// TestLRUBoundAndMetrics: len never exceeds the bound, each eviction adds
// exactly one to the counter, and the resident gauge equals len after
// every add.
func TestLRUBoundAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	evictions := reg.Counter("evictions_total", "")
	resident := reg.Gauge("resident", "")
	const bound = 3
	l := newLRU[int](bound, evictions, resident)
	for i := 0; i < 10; i++ {
		l.add(fmt.Sprint(i), i)
		if n := l.len(); n > bound {
			t.Fatalf("after %d adds len = %d, bound %d", i+1, n, bound)
		}
		if want := uint64(max(0, i+1-bound)); evictions.Value() != want {
			t.Fatalf("after %d adds evictions = %d, want %d", i+1, evictions.Value(), want)
		}
		if g := resident.Value(); g != float64(l.len()) {
			t.Fatalf("after %d adds resident gauge = %v, len %d", i+1, g, l.len())
		}
	}
}

// TestLRUNilMetrics: caches without metric handles evict and replace
// without touching them.
func TestLRUNilMetrics(t *testing.T) {
	l := newLRU[*int](1, nil, nil)
	a, b := 1, 2
	l.add("a", &a)
	l.add("a", &b)
	l.add("b", &b)
	if l.len() != 1 {
		t.Fatalf("len = %d, want 1", l.len())
	}
	if v, ok := l.get("b"); !ok || v != &b {
		t.Fatal("get(b) lost the value")
	}
	if v, ok := l.get("a"); ok || v != nil {
		t.Fatalf("evicted get(a) = %v, %v; want zero value, false", v, ok)
	}
}

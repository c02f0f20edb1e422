package serve

import (
	"context"

	"github.com/gaugenn/gaugenn/internal/index"
)

// index returns one snapshot's query index by corpus CAS key: memoised,
// else loaded from the store, else rebuilt from the corpus (the lazy
// path for stores populated before the index kind existed, and the
// self-heal path for corrupt index blobs — both read as a load miss).
// A rebuild is persisted best-effort: if the write fails the request is
// still answered from the in-memory index, and the next cold process
// rebuilds again (eviction-safe fallback).
func (s *Server) index(ctx context.Context, key string) (*index.Index, error) {
	if ix, ok := s.indexes.get(key); ok {
		return ix, nil
	}
	if ix, ok := index.Load(s.st, key); ok {
		s.indexes.add(key, ix)
		return ix, nil
	}
	c, err := s.corpus(ctx, key)
	if err != nil {
		return nil, err
	}
	ix := index.BuildStore(s.st, c)
	metIndexBuilds.Inc()
	if err := index.Persist(s.st, key, ix); err != nil {
		logf("serve: persisting rebuilt index %s: %v", key, err)
	}
	s.indexes.add(key, ix)
	return ix, nil
}

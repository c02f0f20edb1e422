package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/gaugenn/gaugenn/internal/errs"
	"github.com/gaugenn/gaugenn/internal/store"
)

// TestServeRequestContextHonoured: a request whose context is already
// dead must not pay for (or memoise) a corpus decode — the handler
// terminates with a 503 and the memo cache stays empty.
func TestServeRequestContextHonoured(t *testing.T) {
	st, id, _ := persistedStudy(t)
	s := New(st)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/api/studies/"+id+"/tables", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 503 {
		t.Fatalf("dead-context request = %d: %s", rec.Code, rec.Body.String())
	}
	if cached := s.corpora.len(); cached != 0 {
		t.Fatalf("cancelled request memoised %d corpora", cached)
	}

	// A live request afterwards serves normally.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/studies/"+id+"/tables", nil))
	if rec.Code != 200 {
		t.Fatalf("live request after cancelled one = %d", rec.Code)
	}
}

// TestServeCorruptCorpusSurfacesSentinel: a corrupt corpus blob maps to
// a 500 tagged "store corrupt", and the loader's error matches the public
// sentinel. With the snapshot's index blob gone too, every read that
// needs the snapshot — study detail (self-heal rebuild), diff and tables
// — fails that way, and no error response carries cache validators. Two
// corruptions: a torn blob, and one hex digit of a unique's checksum
// flipped, which still decodes as JSON.
func TestServeCorruptCorpusSurfacesSentinel(t *testing.T) {
	for _, c := range []struct {
		name   string
		mangle func(t *testing.T, blob []byte) []byte
	}{
		{"truncated", func(_ *testing.T, blob []byte) []byte { return blob[:len(blob)/2] }},
		{"unique checksum digit flipped", func(t *testing.T, blob []byte) []byte {
			at := bytes.Index(blob, []byte(`"uniques":[{"checksum":"`))
			if at < 0 {
				t.Fatal("corpus blob has no uniques")
			}
			at += len(`"uniques":[{"checksum":"`)
			out := bytes.Clone(blob)
			if out[at] == '0' {
				out[at] = '1'
			} else {
				out[at] = '0'
			}
			return out
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			st, id, res := persistedStudy(t)
			// Corpus blobs are content-keyed (write-once in Put), so the
			// blob is rewritten on disk rather than through the store.
			key := res.Persist.CorpusKeys["2021"]
			if key == "" {
				t.Fatal("no corpus key")
			}
			corruptBlob(t, st, key, c.mangle)
			if err := os.Remove(filepath.Join(st.Dir(), store.KindIndex, key[:2], key)); err != nil {
				t.Fatal(err)
			}
			s := New(st)
			_, err := s.corpus(context.Background(), key)
			if !errors.Is(err, errs.ErrStoreCorrupt) {
				t.Fatalf("corrupt blob error = %v, want ErrStoreCorrupt on the chain", err)
			}
			for _, tc := range []struct {
				path   string
				status int
			}{
				{"/api/studies/" + id, 500},
				{"/api/diff?from=" + id + "&to=" + id, 500},
				{"/api/studies/" + id + "/tables", 500},
				{"/api/models/00000000000000000000000000000000", 404},
			} {
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
				if rec.Code != tc.status {
					t.Fatalf("GET %s = %d, want %d: %s", tc.path, rec.Code, tc.status, rec.Body.String())
				}
				if tc.status == 500 {
					if !strings.Contains(rec.Body.String(), "store corrupt") {
						t.Fatalf("GET %s body lacks \"store corrupt\": %s", tc.path, rec.Body.String())
					}
					if hint := rec.Header().Get("Gaugenn-Hint"); !strings.Contains(hint, "fsck") {
						t.Fatalf("GET %s carries no fsck repair hint: %q", tc.path, hint)
					}
				}
				// An error must not be stored or revalidated: a cache
				// keeping it would outlive the repair (or the model's
				// arrival).
				if etag := rec.Header().Get("ETag"); etag != "" {
					t.Fatalf("GET %s error response carries ETag %s", tc.path, etag)
				}
				if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
					t.Fatalf("GET %s error response Cache-Control = %q, want no-store", tc.path, cc)
				}
			}
		})
	}
}

// corruptBlob rewrites a corpus blob in place on disk with mangle's
// output, bypassing the store's write-once Put (which would refuse to
// overwrite a content-keyed blob). The path mirrors the store's git-style
// sharding.
func corruptBlob(t *testing.T, st *store.Store, key string, mangle func(*testing.T, []byte) []byte) {
	t.Helper()
	data, ok, err := st.Get(store.KindCorpus, key)
	if err != nil || !ok {
		t.Fatalf("blob %s: ok=%v err=%v", key, ok, err)
	}
	if len(data) < 10 {
		t.Fatal("blob too small to corrupt meaningfully")
	}
	path := filepath.Join(st.Dir(), store.KindCorpus, key[:2], key)
	if err := os.WriteFile(path, mangle(t, data), 0o644); err != nil {
		t.Fatal(err)
	}
}

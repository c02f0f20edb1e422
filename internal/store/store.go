// Package store implements gaugeNN's persistent content-addressed study
// store: a filesystem CAS holding the pipeline's derived artifacts —
// extraction reports keyed by APK payload hash, per-snapshot maps from
// APK recipes to those report keys, per-checksum analysis records,
// payload decode outcomes and corpus snapshots — plus an
// append-only manifest of persisted studies. It is the durability layer
// under the study engine's warm-start path (a re-run loads everything it
// has seen before instead of re-crawling/re-decoding it) and the data
// source of the `gaugenn serve` query API.
//
// The store is deliberately dumb: bytes in, bytes out, keys validated,
// writes atomic (temp file + rename) and idempotent (content-addressed
// keys mean an existing blob is never rewritten). Typed codecs live with
// the types they serialise (internal/extract, internal/analysis); this
// package carries no pipeline logic, only the error taxonomy (errs) and
// per-kind traffic counters (obs). See docs/persistence.md for the
// on-disk layout and invalidation rules.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"errors"

	"github.com/gaugenn/gaugenn/internal/errs"
)

// Blob kinds — each kind is one top-level CAS namespace (a directory).
const (
	// KindPayload records a decode outcome per model payload hash.
	KindPayload = "payload"
	// KindAnalysis records per-checksum analysis results.
	KindAnalysis = "analysis"
	// KindReport records whole extraction reports per APK payload hash.
	KindReport = "report"
	// KindGraph records decoded model graphs (binary codec) per checksum.
	KindGraph = "graph"
	// KindCorpus records serialised corpus snapshots by content hash.
	KindCorpus = "corpus"
	// KindIndex records columnar query indexes derived from corpus
	// snapshots, keyed by the source corpus blob's key.
	KindIndex = "index"
	// KindAPK records, per (study, snapshot), which report key each APK
	// recipe packaged to, so warm runs skip packaging and hashing.
	KindAPK = "apk"
)

// kinds lists every blob kind, in the fixed order fsck scans them.
var kinds = []string{KindAnalysis, KindAPK, KindCorpus, KindGraph, KindIndex, KindPayload, KindReport}

// Kinds returns every blob kind in a fixed order.
func Kinds() []string { return slices.Clone(kinds) }

// manifestName is the append-only study log at the store root.
const manifestName = "manifest.jsonl"

// Store is a content-addressed blob store rooted at one directory. All
// methods are safe for concurrent use within one process; concurrent
// writers in separate processes are safe for blobs (atomic rename, equal
// content per key) but the manifest assumes a single writing process.
type Store struct {
	dir string
	fs  FS

	// manifestMu serialises manifest appends (read-check-append).
	manifestMu sync.Mutex
}

// Open creates (if needed) and opens a store rooted at dir on the real
// filesystem. OpenFS substitutes the IO layer.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, fs: OSFS{}}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// HexKey renders raw hash bytes as a store key.
func HexKey(b []byte) string { return hex.EncodeToString(b) }

// validKey constrains keys to lowercase hex-ish names: no separators, no
// traversal, usable verbatim as file names on any platform.
func validKey(key string) bool {
	if len(key) < 4 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func validKind(kind string) bool { return slices.Contains(kinds, kind) }

// blobPath shards blobs by the first two key characters so no directory
// grows unboundedly (the git object-store layout).
func (s *Store) blobPath(kind, key string) string {
	return filepath.Join(s.dir, kind, key[:2], key)
}

func (s *Store) checkRef(kind, key string) error {
	if !validKind(kind) {
		return fmt.Errorf("store: unknown blob kind %q", kind)
	}
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q for kind %s", key, kind)
	}
	return nil
}

// contentKeyed reports whether a kind's key is the hash of the blob's own
// bytes. Such blobs are write-once — an existing blob is byte-identical by
// construction, so Put skips it. Every other kind is a *derived record*
// keyed by the hash of its input (payload outcome, analysis record,
// report, graph), whose encoding can legitimately change at the same key
// (codec version bumps): those are overwritten, so a recomputed artifact
// really is re-persisted under the current layout (the invalidation
// contract of docs/persistence.md).
func contentKeyed(kind string) bool { return kind == KindCorpus }

// ContentKey returns the key a content-keyed blob is stored under: the
// hex sha256 of its bytes.
func ContentKey(data []byte) string {
	sum := sha256.Sum256(data)
	return HexKey(sum[:])
}

// CheckContent verifies a blob read under (kind, key): a content-keyed
// blob whose bytes do not hash to its key is store corruption, matching
// errs.ErrStoreCorrupt. Every other kind passes.
func CheckContent(kind, key string, data []byte) error {
	if !contentKeyed(kind) {
		return nil
	}
	if got := ContentKey(data); got != key {
		return fmt.Errorf("content hash %s does not match key: %w", got[:12], errs.ErrStoreCorrupt)
	}
	return nil
}

// Put stores a blob under (kind, key). Writes are atomic (temp file +
// rename), so readers never observe a partial blob; content-keyed kinds
// skip existing blobs, derived-record kinds replace them.
func (s *Store) Put(kind, key string, data []byte) error {
	if err := s.checkRef(kind, key); err != nil {
		return err
	}
	path := s.blobPath(kind, key)
	if contentKeyed(kind) {
		if _, err := s.fs.Stat(path); err == nil {
			return nil // already stored; the key is the hash of these bytes
		}
	}
	if err := s.fs.WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("store: writing %s/%s: %w", kind, key, err)
	}
	countKind(metPuts, kind)
	return nil
}

// Get loads the blob under (kind, key); ok is false when it is absent. A
// content-keyed blob is checked against its key (CheckContent).
func (s *Store) Get(kind, key string) (data []byte, ok bool, err error) {
	if err := s.checkRef(kind, key); err != nil {
		return nil, false, err
	}
	data, err = s.fs.ReadFile(s.blobPath(kind, key))
	if errors.Is(err, iofs.ErrNotExist) {
		countKind(metGetMisses, kind)
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: reading %s/%s: %w", kind, key, err)
	}
	countKind(metGets, kind)
	if err := CheckContent(kind, key, data); err != nil {
		return nil, false, fmt.Errorf("store: %s/%s: %w", kind, key, err)
	}
	return data, true, nil
}

// Has reports whether a blob exists under (kind, key).
func (s *Store) Has(kind, key string) bool {
	if s.checkRef(kind, key) != nil {
		return false
	}
	_, err := s.fs.Stat(s.blobPath(kind, key))
	return err == nil
}

// Count returns the number of blobs stored under kind.
func (s *Store) Count(kind string) (int, error) {
	if !validKind(kind) {
		return 0, fmt.Errorf("store: unknown blob kind %q", kind)
	}
	shards, err := s.fs.ReadDir(filepath.Join(s.dir, kind))
	if errors.Is(err, iofs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	n := 0
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		blobs, err := s.fs.ReadDir(filepath.Join(s.dir, kind, sh.Name()))
		if err != nil {
			return 0, fmt.Errorf("store: %w", err)
		}
		for _, b := range blobs {
			if !b.IsDir() && b.Name()[0] != '.' {
				n++
			}
		}
	}
	return n, nil
}

// ManifestEntry is one persisted study in the append-only manifest. A
// study is identified by its configuration (ID is a pure function of seed
// and scale), and references its corpus snapshots by CAS key — re-running
// an identical study reproduces identical keys, so the manifest records
// provenance without duplicating data.
type ManifestEntry struct {
	// ID identifies the study configuration ("seed42-scale0.05").
	ID string `json:"id"`
	// Seed and Scale reproduce the study's store generation.
	Seed  int64   `json:"seed"`
	Scale float64 `json:"scale"`
	// Snapshots maps snapshot label -> corpus blob key (KindCorpus).
	Snapshots map[string]string `json:"snapshots"`
	// Apps/Models record per-label dataset sizes for cheap listing.
	Apps   map[string]int `json:"apps,omitempty"`
	Models map[string]int `json:"models,omitempty"`
}

// AppendManifest appends one study entry as a JSON line. Appending an
// entry whose encoding is already present is a no-op, so warm re-runs of
// an identical study do not grow the log; the file itself is append-only
// (existing lines are never rewritten).
func (s *Store) AppendManifest(e ManifestEntry) error {
	if e.ID == "" {
		return fmt.Errorf("store: manifest entry without id")
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("store: encoding manifest entry: %w", err)
	}
	s.manifestMu.Lock()
	defer s.manifestMu.Unlock()
	existing, err := s.fs.ReadFile(s.manifestPath())
	if err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return fmt.Errorf("store: reading manifest: %w", err)
	}
	for _, l := range bytes.Split(existing, []byte{'\n'}) {
		if bytes.Equal(bytes.TrimSpace(l), line) {
			return nil
		}
	}
	// A torn final line (crashed or fault-injected writer) must not glue
	// itself onto this entry: start a fresh line first. Manifest() skips
	// the resulting fragment; fsck trims it.
	var prefix []byte
	if n := len(existing); n > 0 && existing[n-1] != '\n' {
		prefix = []byte{'\n'}
	}
	if err := s.fs.Append(s.manifestPath(), append(prefix, append(line, '\n')...)); err != nil {
		return fmt.Errorf("store: appending manifest: %w", err)
	}
	return nil
}

// Manifest returns every manifest entry in append order. Lines that do
// not parse are skipped (a torn final line from a crashed writer must not
// poison the log).
func (s *Store) Manifest() ([]ManifestEntry, error) {
	raw, err := s.fs.ReadFile(s.manifestPath())
	if errors.Is(err, iofs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: reading manifest: %w", err)
	}
	var out []ManifestEntry
	for _, line := range bytes.Split(raw, []byte{'\n'}) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var e ManifestEntry
		if err := json.Unmarshal(line, &e); err != nil || e.ID == "" {
			continue
		}
		out = append(out, e)
	}
	return out, nil
}

// Studies returns the manifest deduplicated by study ID, keeping the
// latest entry per ID in first-appearance order — the listing the serve
// API exposes.
func (s *Store) Studies() ([]ManifestEntry, error) {
	entries, err := s.Manifest()
	if err != nil {
		return nil, err
	}
	latest := map[string]ManifestEntry{}
	var order []string
	for _, e := range entries {
		if _, seen := latest[e.ID]; !seen {
			order = append(order, e.ID)
		}
		latest[e.ID] = e
	}
	out := make([]ManifestEntry, 0, len(order))
	for _, id := range order {
		out = append(out, latest[id])
	}
	return out, nil
}

// Study returns the latest manifest entry for one study ID.
func (s *Store) Study(id string) (ManifestEntry, bool, error) {
	entries, err := s.Studies()
	if err != nil {
		return ManifestEntry{}, false, err
	}
	for _, e := range entries {
		if e.ID == id {
			return e, true, nil
		}
	}
	return ManifestEntry{}, false, nil
}

// ManifestInfo fingerprints the manifest file by (size, mtime) without
// reading it. Callers cache the parsed manifest keyed by this pair: the
// log is append-only, so any change moves the size. ok is false while no
// manifest exists yet (an empty store).
func (s *Store) ManifestInfo() (size int64, mtime time.Time, ok bool) {
	fi, err := s.fs.Stat(s.manifestPath())
	if err != nil {
		return 0, time.Time{}, false
	}
	return fi.Size(), fi.ModTime(), true
}

func (s *Store) manifestPath() string { return filepath.Join(s.dir, manifestName) }

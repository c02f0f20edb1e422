// Package fsck verifies (and optionally repairs) a persistent study store
// against the corruption classes a crashed writer, a flaky disk, or the
// fault injector can produce: bit-flipped or truncated blobs, garbage
// appended past a record's end, and torn manifest tails.
//
// Every blob kind has a definite validity check — corpus blobs hash to
// their key, graph blobs decode and re-derive their checksum key, sealed
// records (payload, analysis, report, apk, index) verify their embedded
// digest (apk records additionally carry a codec version and hex-digest
// keys, index blobs satisfy structural invariants) — so
// fsck never guesses. Repair is conservative: corrupt derived records are
// quarantined (moved aside, never deleted) for the next warm run to
// recompute, and the manifest is rewritten keeping exactly its valid
// lines. A repaired store warm-resumes as if the corrupt records had
// never been written.
package fsck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/gaugenn/gaugenn/internal/analysis"
	"github.com/gaugenn/gaugenn/internal/extract"
	"github.com/gaugenn/gaugenn/internal/index"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/store"
)

// Issue is one problem found in the store.
type Issue struct {
	// Kind is the blob kind ("report", "graph", ...) or "manifest".
	Kind string
	// Key is the blob key; empty for manifest issues.
	Key string
	// Problem describes what failed validation.
	Problem string
	// Fixed reports whether a repair was applied (quarantine or trim).
	Fixed bool
}

func (i Issue) String() string {
	s := i.Kind
	if i.Key != "" {
		s += "/" + i.Key
	}
	s += ": " + i.Problem
	if i.Fixed {
		s += " (fixed)"
	}
	return s
}

// Result summarises one fsck pass.
type Result struct {
	// Scanned counts the blobs examined, per kind.
	Scanned map[string]int
	// ManifestEntries counts the manifest's valid entries.
	ManifestEntries int
	// Issues lists every problem found, in deterministic order.
	Issues []Issue
}

// Clean reports whether the pass found nothing wrong.
func (r *Result) Clean() bool { return len(r.Issues) == 0 }

// Options controls a pass.
type Options struct {
	// Fix applies repairs: corrupt blobs are quarantined under
	// <dir>/quarantine/<kind>/<key>, the manifest is rewritten without
	// its invalid lines. False is a read-only audit.
	Fix bool
}

// Run audits the study store rooted at dir. It operates on the real
// filesystem (fsck is an offline tool; nothing else may hold the store).
func Run(dir string, opts Options) (*Result, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("fsck: %w", err)
	}
	res := &Result{Scanned: map[string]int{}}
	for _, kind := range store.Kinds() {
		if err := checkKind(dir, kind, opts, res); err != nil {
			return nil, err
		}
	}
	if err := checkManifest(dir, opts, res); err != nil {
		return nil, err
	}
	return res, nil
}

// checkKind walks one kind's shard directories and validates every blob.
func checkKind(dir, kind string, opts Options, res *Result) error {
	shards, err := os.ReadDir(filepath.Join(dir, kind))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		blobs, err := os.ReadDir(filepath.Join(dir, kind, sh.Name()))
		if err != nil {
			return fmt.Errorf("fsck: %w", err)
		}
		for _, b := range blobs {
			if b.IsDir() || b.Name()[0] == '.' {
				continue
			}
			key := b.Name()
			path := filepath.Join(dir, kind, sh.Name(), key)
			res.Scanned[kind]++
			data, err := os.ReadFile(path)
			if err != nil {
				return fmt.Errorf("fsck: %w", err)
			}
			verr := validateBlob(kind, key, data)
			if verr == nil {
				continue
			}
			issue := Issue{Kind: kind, Key: key, Problem: verr.Error()}
			if opts.Fix {
				if err := quarantineBlob(dir, kind, key, path); err != nil {
					return err
				}
				issue.Fixed = true
			}
			res.Issues = append(res.Issues, issue)
		}
	}
	// ReadDir returns sorted names, so issues are already deterministic
	// within a kind; kinds run in fixed order.
	return nil
}

// validateBlob applies the kind-specific validity check.
func validateBlob(kind, key string, data []byte) error {
	switch kind {
	case store.KindCorpus:
		return store.CheckContent(kind, key, data)
	case store.KindGraph:
		_, err := graph.DecodeStored(data, graph.Checksum(key))
		return err
	case store.KindAnalysis:
		return analysis.ValidateAnalysisRecord(data)
	case store.KindPayload:
		return analysis.ValidatePayloadRecord(data)
	case store.KindReport:
		_, err := extract.DecodeReport(data)
		return err
	case store.KindAPK:
		_, err := extract.DecodeAPKRecord(data)
		return err
	case store.KindIndex:
		return index.Validate(data)
	}
	return fmt.Errorf("unknown kind %q", kind)
}

// quarantineBlob moves a corrupt blob aside so a warm run sees a miss and
// recomputes; the bytes survive under quarantine/ for post-mortems.
func quarantineBlob(dir, kind, key, path string) error {
	qdir := filepath.Join(dir, "quarantine", kind)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	if err := os.Rename(path, filepath.Join(qdir, key)); err != nil {
		return fmt.Errorf("fsck: quarantining %s/%s: %w", kind, key, err)
	}
	return nil
}

// checkManifest validates the study log line by line. With Fix, the file
// is rewritten atomically keeping exactly the valid lines — trimming a
// torn tail, dropping bit-flipped entries — preserving order.
func checkManifest(dir string, opts Options, res *Result) error {
	path := filepath.Join(dir, "manifest.jsonl")
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	torn := len(raw) > 0 && raw[len(raw)-1] != '\n'
	var valid [][]byte
	invalid := 0
	for _, line := range bytes.Split(raw, []byte{'\n'}) {
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			continue
		}
		var e store.ManifestEntry
		if json.Unmarshal(trimmed, &e) != nil || e.ID == "" {
			invalid++
			continue
		}
		valid = append(valid, trimmed)
		// Dangling corpus references are reported but never "fixed": the
		// entry is true provenance, the blob is what's missing.
		for _, label := range sortedLabels(e.Snapshots) {
			key := e.Snapshots[label]
			if len(key) < 4 {
				res.Issues = append(res.Issues, Issue{
					Kind:    "manifest",
					Key:     e.ID,
					Problem: fmt.Sprintf("snapshot %s has malformed corpus key %q", label, key),
				})
				continue
			}
			if _, err := os.Stat(filepath.Join(dir, store.KindCorpus, key[:2], key)); err != nil {
				res.Issues = append(res.Issues, Issue{
					Kind:    "manifest",
					Key:     e.ID,
					Problem: fmt.Sprintf("snapshot %s references missing corpus %s", label, key[:12]),
				})
			}
		}
	}
	res.ManifestEntries = len(valid)
	if invalid == 0 && !torn {
		return nil
	}
	problem := fmt.Sprintf("%d invalid line(s)", invalid)
	if torn {
		problem += ", torn tail"
	}
	issue := Issue{Kind: "manifest", Problem: problem}
	if opts.Fix {
		var buf bytes.Buffer
		for _, l := range valid {
			buf.Write(l)
			buf.WriteByte('\n')
		}
		if err := writeAtomic(path, buf.Bytes()); err != nil {
			return err
		}
		issue.Fixed = true
	}
	res.Issues = append(res.Issues, issue)
	return nil
}

func sortedLabels(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".fsck-*")
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("fsck: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fsck: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("fsck: %w", err)
	}
	return nil
}

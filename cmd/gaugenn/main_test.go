package main

import (
	"bytes"
	"errors"
	"os"
	"path"
	"regexp"
	"strings"
	"testing"

	"github.com/gaugenn/gaugenn/internal/errs"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
	"github.com/gaugenn/gaugenn/internal/obs"
	"github.com/gaugenn/gaugenn/internal/store"
)

// TestMetricCatalogueCoversRegistry keeps docs/observability.md's metric
// catalogue from drifting: this binary links every instrumented layer, so
// rendering the default registry lists every family those layers register
// at init, and each must match a catalogue entry (the first column of the
// table, without the gaugenn_ prefix; a * entry matches by prefix).
func TestMetricCatalogueCoversRegistry(t *testing.T) {
	doc, err := os.ReadFile("../../docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile("`([a-z0-9_*]+)`")
	var entries []string
	for _, line := range strings.Split(string(doc), "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 && strings.HasPrefix(line, "| `") {
			for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
				entries = append(entries, m[1])
			}
		}
	}
	if len(entries) == 0 {
		t.Fatal("no catalogue entries found in docs/observability.md")
	}

	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	families := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 || fields[0] != "#" || fields[1] != "TYPE" || !strings.HasPrefix(fields[2], "gaugenn_") {
			continue
		}
		families++
		series := strings.TrimPrefix(fields[2], "gaugenn_")
		listed := false
		for _, e := range entries {
			if ok, _ := path.Match(e, series); ok {
				listed = true
				break
			}
		}
		if !listed {
			t.Errorf("metric family %s has no entry in docs/observability.md's catalogue", fields[2])
		}
	}
	if families == 0 {
		t.Fatal("the registry rendered no gaugenn_ families")
	}
}

// TestExecChecksumRefusesCorruptBlob: `gaugenn exec -checksum` runs a
// stored graph only when the blob is the model its key names. With one
// weight bit flipped it fails with ErrStoreCorrupt and names fsck.
func TestExecChecksumRefusesCorruptBlob(t *testing.T) {
	g, err := zoo.Build(zoo.Spec{Task: zoo.TaskCrashDetection, Seed: 1, Opts: zoo.ArchOpts{Width: 0.25, TimeSteps: 4, Classes: 2}})
	if err != nil {
		t.Fatal(err)
	}
	key := string(graph.ModelChecksum(g))
	blob := graph.EncodeStored(g)
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-cache-dir", dir, "-checksum", key, "-runs", "1", "-workers", "1"}
	if err := st.Put(store.KindGraph, key, blob); err != nil {
		t.Fatal(err)
	}
	if err := runExec(args); err != nil {
		t.Fatalf("intact blob: %v", err)
	}
	var weight []byte
	for i := range g.Layers {
		if ws := g.Layers[i].Weights; weight == nil && len(ws) > 0 {
			weight = ws[0].Data
		}
	}
	blob[bytes.Index(blob, weight)] ^= 1
	if err := st.Put(store.KindGraph, key, blob); err != nil {
		t.Fatal(err)
	}
	err = runExec(args)
	if !errors.Is(err, errs.ErrStoreCorrupt) || !strings.Contains(err.Error(), "gaugenn fsck") {
		t.Fatalf("flipped weight bit: got %v, want ErrStoreCorrupt naming fsck", err)
	}
}

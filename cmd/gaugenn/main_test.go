package main

import (
	"bytes"
	"os"
	"path"
	"regexp"
	"strings"
	"testing"

	"github.com/gaugenn/gaugenn/internal/obs"
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

package formats

import (
	"bytes"
	"errors"
	"sort"
	"testing"

	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
)

// FuzzDecodeFormats holds every format's Decode to its contract on
// arbitrary files: it never panics, every error wraps ErrNotValid, and a
// graph a binary container accepts re-encodes and decodes to the same
// EncodeBinary bytes. The inputs are a format index and one or two files
// (a two-file format's weights and definition, by file name order); the
// seeds are each format's encoding of small zoo models.
func FuzzDecodeFormats(f *testing.F) {
	fmts := All()
	names := make([][]string, len(fmts)) // each format's file names, sorted
	for _, spec := range []zoo.Spec{
		{Task: zoo.TaskCrashDetection, Seed: 1, Opts: zoo.ArchOpts{Width: 0.25, TimeSteps: 4, Classes: 2}},
		{Task: zoo.TaskKeywordDetection, Seed: 1, Quantized: true, Opts: zoo.ArchOpts{Width: 0.1, TimeSteps: 4, Classes: 2}},
		{Task: zoo.TaskFaceDetection, Seed: 1, Opts: zoo.ArchOpts{Width: 0.1, Resolution: 16}},
	} {
		g, err := zoo.Build(spec)
		if err != nil {
			f.Fatal(err)
		}
		for i, format := range fmts {
			files, err := format.Encode(g, "m")
			if err != nil {
				f.Fatal(err)
			}
			names[i] = names[i][:0]
			for name := range files {
				names[i] = append(names[i], name)
			}
			sort.Strings(names[i])
			var second []byte
			if len(names[i]) > 1 {
				second = files[names[i][1]]
			}
			f.Add(uint8(i), files[names[i][0]], second)
		}
	}
	f.Fuzz(func(t *testing.T, index uint8, first, second []byte) {
		i := int(index) % len(fmts)
		format := fmts[i]
		files := FileSet{names[i][0]: first}
		if len(names[i]) > 1 {
			files[names[i][1]] = second
		}
		g, err := format.Decode(files)
		if err != nil {
			if !errors.Is(err, ErrNotValid) {
				t.Fatalf("%s: error %v does not wrap ErrNotValid", format.Name(), err)
			}
			return
		}
		if !binaryContainers[format.Name()] {
			return
		}
		again, err := format.Encode(g, "m")
		if err != nil {
			t.Fatalf("%s: re-encoding a decoded graph: %v", format.Name(), err)
		}
		g2, err := format.Decode(again)
		if err != nil {
			t.Fatalf("%s: decoding a re-encoded graph: %v", format.Name(), err)
		}
		if !bytes.Equal(graph.EncodeBinary(g2), graph.EncodeBinary(g)) {
			t.Fatalf("%s: re-encoding changed the graph", format.Name())
		}
	})
}

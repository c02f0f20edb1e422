package formats

import (
	"fmt"
	"sort"

	"github.com/gaugenn/gaugenn/internal/nn/graph"
)

// tfliteMagic sits at byte offset 4, exactly where gaugeNN's validation
// rule looks for it in real FlatBuffer files ("we check for the existence
// of e.g. the string 'TFL3' there", Section 3.1).
const tfliteMagic = "TFL3"

const tfliteMagicOffset = 4

// TFLite is the dominant in-the-wild format (86.2% of 2021-snapshot
// models). Its container is FlatBuffer-like: a root-offset word, the TFL3
// file identifier at offset 4, then a schema-versioned model table holding
// an operator-code table, a tensor table and a buffer section.
type TFLite struct{}

// Name implements Format.
func (TFLite) Name() string { return "tflite" }

// Extensions implements Format. TFLite ships under .tflite/.lite/.tfl and
// occasionally generic .bin/.pb names (Table 5).
func (TFLite) Extensions() []string { return []string{".tflite", ".lite", ".tfl", ".bin", ".pb"} }

// Sniff implements Format: the TFL3 identifier must sit at offset 4.
func (TFLite) Sniff(data []byte) bool {
	return len(data) > tfliteMagicOffset+len(tfliteMagic) &&
		string(data[tfliteMagicOffset:tfliteMagicOffset+len(tfliteMagic)]) == tfliteMagic
}

// Encode implements Format.
func (TFLite) Encode(g *graph.Graph, stem string) (FileSet, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("tflite: refusing to encode invalid graph: %w", err)
	}
	// Operator-code table: the distinct ops referenced by the model.
	seen := map[graph.OpType]bool{}
	var codes []string
	for i := range g.Layers {
		if op := g.Layers[i].Op; !seen[op] {
			seen[op] = true
			codes = append(codes, op.String())
		}
	}
	w := graph.NewBinWriter(g, 16+32*len(codes))
	// FlatBuffer-like header: root table offset placeholder, then the file
	// identifier at offset 4.
	w.U32(0x0000001c)
	w.Buf = append(w.Buf, tfliteMagic...)
	w.U32(3) // schema version
	w.U32(uint32(len(codes)))
	for _, c := range codes {
		w.Str(c)
	}
	// Subgraph section: a single subgraph carrying the IR body.
	w.Graph(g)
	// Trailing buffer count (real files keep weight buffers in a trailing
	// section; ours embeds them in the body and records the count).
	w.U32(uint32(len(g.Layers)))
	return FileSet{stem + ".tflite": w.Buf}, nil
}

// Decode implements Format.
func (f TFLite) Decode(files FileSet) (*graph.Graph, error) {
	data, err := singleFile(files, f)
	if err != nil {
		return nil, err
	}
	head := tfliteMagicOffset + len(tfliteMagic)
	if len(data) < head || string(data[tfliteMagicOffset:head]) != tfliteMagic {
		return nil, fmt.Errorf("%w: missing TFL3 identifier", ErrNotValid)
	}
	r := graph.NewBinReader(data[head:])
	if v := r.U32(); v != 3 {
		return nil, fmt.Errorf("%w: unsupported tflite schema version %d", ErrNotValid, v)
	}
	ncodes := int(r.U32())
	if r.Err() != nil || ncodes > 1<<10 {
		return nil, fmt.Errorf("%w: implausible opcode table", ErrNotValid)
	}
	for i := 0; i < ncodes; i++ {
		if _, err := graph.ParseOp(r.Str()); err != nil {
			return nil, fmt.Errorf("%w: unknown opcode in table: %v", ErrNotValid, err)
		}
	}
	g := r.Graph()
	if nbuf := r.U32(); r.Err() == nil && int(nbuf) != len(g.Layers) {
		return nil, fmt.Errorf("%w: buffer section declares %d buffers for %d layers", ErrNotValid, nbuf, len(g.Layers))
	}
	return valid(g, r.Err())
}

// singleFile extracts the lone payload from a single-file format's FileSet,
// preferring files by the format's extension priority order and breaking
// remaining ties by sniffing, then by name (deterministically).
func singleFile(files FileSet, f Format) ([]byte, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("%w: empty file set", ErrNotValid)
	}
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, ext := range f.Extensions() {
		var fallback []byte
		for _, name := range names {
			if extensionOf(name) != ext {
				continue
			}
			if f.Sniff(files[name]) {
				return files[name], nil
			}
			if fallback == nil {
				fallback = files[name]
			}
		}
		if fallback != nil {
			return fallback, nil
		}
	}
	if len(files) == 1 {
		return files[names[0]], nil
	}
	return nil, fmt.Errorf("%w: no file matches %s extensions", ErrNotValid, f.Name())
}

func init() { Register(TFLite{}) }

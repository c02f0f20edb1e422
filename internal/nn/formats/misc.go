package formats

import (
	"bytes"
	"fmt"

	"github.com/gaugenn/gaugenn/internal/nn/graph"
)

// tlvFormat factors the three remaining binary formats (TensorFlow frozen
// graphs, ONNX models and SNPE DLC containers): each wraps the common IR
// body in its own magic-framed TLV container with a format-specific
// producer record, which is what their real counterparts' sniffers key on.
type tlvFormat struct {
	name     string
	exts     []string
	magic    []byte
	producer string
	version  uint32
}

// Name implements Format.
func (f tlvFormat) Name() string { return f.name }

// Extensions implements Format.
func (f tlvFormat) Extensions() []string { return append([]string(nil), f.exts...) }

// Sniff implements Format.
func (f tlvFormat) Sniff(data []byte) bool { return bytes.HasPrefix(data, f.magic) }

// Encode implements Format.
func (f tlvFormat) Encode(g *graph.Graph, stem string) (FileSet, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("%s: refusing to encode invalid graph: %w", f.name, err)
	}
	w := graph.NewBinWriter(g, len(f.magic)+8+len(f.producer))
	w.Buf = append(w.Buf, f.magic...)
	w.U32(f.version)
	w.Str(f.producer)
	w.Graph(g)
	return FileSet{stem + f.exts[0]: w.Buf}, nil
}

// Decode implements Format.
func (f tlvFormat) Decode(files FileSet) (*graph.Graph, error) {
	data, err := singleFile(files, f)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(data, f.magic) {
		return nil, fmt.Errorf("%w: %s magic missing", ErrNotValid, f.name)
	}
	r := graph.NewBinReader(data[len(f.magic):])
	if v := r.U32(); v != f.version {
		return nil, fmt.Errorf("%w: unsupported %s version %d", ErrNotValid, f.name, v)
	}
	if p := r.Str(); p != f.producer {
		return nil, fmt.Errorf("%w: unexpected %s producer %q", ErrNotValid, f.name, p)
	}
	g := r.Graph()
	return valid(g, r.Err())
}

// TF is the full TensorFlow frozen-graph format — a shrinking population in
// the wild (0.56× across the paper's snapshots) as TFLite displaces it.
var TF Format = tlvFormat{
	name:     "tf",
	exts:     []string{".pb", ".pbtxt", ".meta"},
	magic:    []byte{0x08, 0x01, 0x12, 'T', 'F', 'G', 'D'},
	producer: "tensorflow",
	version:  1,
}

// ONNX is the interchange format several frameworks export to.
var ONNX Format = tlvFormat{
	name:     "onnx",
	exts:     []string{".onnx", ".pb"},
	magic:    []byte("ONNX"),
	producer: "onnx-exporter",
	version:  7,
}

// SNPE is Qualcomm's Snapdragon Neural Processing Engine container (.dlc):
// the vendor-specific deployment route of Section 6.3, found in 3 apps —
// which ship it blindly to all devices alongside a TFLite fallback.
var SNPE Format = tlvFormat{
	name:     "snpe",
	exts:     []string{".dlc"},
	magic:    []byte("DLC1"),
	producer: "snpe-dlc-converter",
	version:  2,
}

func init() {
	Register(TF)
	Register(ONNX)
	Register(SNPE)
}

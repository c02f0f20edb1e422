// Package formats implements the framework-specific model file formats
// gaugeNN extracts and validates in the wild: TFLite, caffe, ncnn,
// TensorFlow, SNPE DLC and ONNX. Each format serialises the common
// graph.Graph IR with its own framing, magic signatures and (for caffe and
// ncnn) multi-file layout, so that the extraction pipeline exercises real
// per-framework validation rules — "for TFLite ... FlatBuffer files include
// specific headers at certain positions of the binary file, thus we check
// for the existence of e.g. the string TFL3 there" (Section 3.1).
//
// Formats self-register in an init-time registry, after gopacket's layer
// registry pattern; Identify drives the signature-based validation step.
//
// The IR's binary layout lives in one place, internal/nn/graph's
// BinWriter and BinReader. The binary containers (tflite, tf, onnx, snpe)
// frame the graph body graph.EncodeBinary writes after its version byte;
// caffe and ncnn pair a text definition with one named-weight file
// (weightfile.go) in the same weight encoding. Decoded weights borrow the
// file's bytes, and every decode error wraps ErrNotValid.
//
// The encodings are structurally analogous to the real formats, not
// byte-compatible with them.
package formats

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/gaugenn/gaugenn/internal/nn/graph"
)

// FileSet maps file names (with extension, no directory) to their contents.
// Single-file formats produce one entry; caffe produces a .prototxt plus a
// .caffemodel; ncnn a .param plus a .bin.
type FileSet map[string][]byte

// Format serialises and recognises one framework's model files.
type Format interface {
	// Name is the framework identifier ("tflite", "caffe", ...), matching
	// the framework axis of Figure 4.
	Name() string
	// Extensions lists the file extensions (with dot) this format ships
	// under, primary first.
	Extensions() []string
	// Encode serialises g into the format's file set using stem as the
	// base file name.
	Encode(g *graph.Graph, stem string) (FileSet, error)
	// Decode reconstructs the graph from a file set previously produced by
	// Encode (possibly renamed).
	Decode(files FileSet) (*graph.Graph, error)
	// Sniff reports whether data plausibly is this format's primary model
	// file. It must be cheap: gaugeNN uses it to discard the false
	// positives that generic extensions (.pb, .bin, .model) produce.
	Sniff(data []byte) bool
}

// ErrNotValid is wrapped by Decode implementations when the payload fails
// the format's signature or structural checks — the fate of encrypted and
// obfuscated models in the paper's pipeline.
var ErrNotValid = errors.New("formats: not a valid model file")

var (
	registryMu sync.RWMutex
	registry   = map[string]Format{}
	order      []string
)

// Register adds a format to the global registry. It panics on duplicate
// names, which would indicate an init-time programming error.
func Register(f Format) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[f.Name()]; dup {
		panic(fmt.Sprintf("formats: duplicate registration of %q", f.Name()))
	}
	registry[f.Name()] = f
	order = append(order, f.Name())
}

// ByName returns the registered format with the given name.
func ByName(name string) (Format, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	f, ok := registry[name]
	return f, ok
}

// All returns every registered format in registration order.
func All() []Format {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]Format, 0, len(order))
	for _, n := range order {
		out = append(out, registry[n])
	}
	return out
}

// Names returns the registered format names in registration order.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return append([]string(nil), order...)
}

// DecodeFile decodes the bytes of a single-file model with the first
// registered format whose Sniff accepts them: when two formats' sniffs
// accept the same bytes, the one registered first wins. ok is false when
// no format accepts them; err is the accepting format's decode error.
func DecodeFile(data []byte) (g *graph.Graph, ok bool, err error) {
	for _, f := range All() {
		if f.Sniff(data) {
			g, err := f.Decode(FileSet{"model" + f.Extensions()[0]: data})
			return g, true, err
		}
	}
	return nil, false, nil
}

// EncodeTFLite returns the bytes of g's .tflite file: the single-file
// model the benchmark harness, fleet matrices and `gaugenn bench` run,
// which DecodeFile reads back.
func EncodeTFLite(g *graph.Graph) ([]byte, error) {
	files, err := TFLite{}.Encode(g, "m")
	return files["m.tflite"], err
}

// valid returns g when it was read without error and validates; either
// failure wraps ErrNotValid.
func valid(g *graph.Graph, err error) (*graph.Graph, error) {
	if err == nil {
		err = g.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotValid, err)
	}
	return g, nil
}

// Identify runs the validation step of Section 3.1: the file name must
// carry an extension some framework claims, and the payload must pass that
// framework's signature sniff. Generic extensions (.pb, .bin) are claimed
// by several frameworks, so every candidate format is sniffed.
func Identify(filename string, data []byte) (Format, bool) {
	ext := strings.ToLower(extensionOf(filename))
	if ext == "" {
		return nil, false
	}
	registryMu.RLock()
	defer registryMu.RUnlock()
	for _, n := range order {
		f := registry[n]
		for _, fe := range f.Extensions() {
			if fe == ext && f.Sniff(data) {
				return f, true
			}
		}
	}
	return nil, false
}

// CandidateExtension reports whether the file name carries any extension in
// the known-framework table (Table 5) — the cheap pre-screen gaugeNN runs
// before signature validation.
func CandidateExtension(filename string) bool {
	ext := strings.ToLower(extensionOf(filename))
	if ext == "" {
		return false
	}
	_, ok := knownExtensionOwners[ext]
	return ok
}

// KnownExtensions returns the Table 5 extension table: extension (with dot)
// to the frameworks that use it, sorted deterministically.
func KnownExtensions() map[string][]string {
	out := make(map[string][]string, len(knownExtensionOwners))
	for ext, owners := range knownExtensionOwners {
		cp := append([]string(nil), owners...)
		sort.Strings(cp)
		out[ext] = cp
	}
	return out
}

// extensionOf returns the extension including the dot, handling compound
// suffixes from Table 5 such as ".pth.tar" and ".cfg.ncnn".
func extensionOf(name string) string {
	lower := strings.ToLower(name)
	for _, compound := range []string{".pth.tar", ".cfg.ncnn", ".weights.ncnn"} {
		if strings.HasSuffix(lower, compound) {
			return compound
		}
	}
	if i := strings.LastIndex(lower, "."); i >= 0 {
		return lower[i:]
	}
	return ""
}

// knownExtensionOwners reproduces the appendix's Table 5 ("Frameworks and
// formats validated by gaugeNN").
var knownExtensionOwners = map[string][]string{
	".onnx":         {"ONNX"},
	".pb":           {"ONNX", "Keras", "Caffe2", "PyTorch", "TFLite", "TF"},
	".pbtxt":        {"ONNX", "Caffe", "Caffe2", "TF"},
	".prototxt":     {"ONNX", "Caffe", "Caffe2", "TF"},
	".mar":          {"MXNet"},
	".model":        {"MXNet", "Keras", "PyTorch", "Sklearn"},
	".json":         {"MXNet", "Keras", "TF"},
	".params":       {"MXNet"},
	".h5":           {"Keras", "PyTorch", "Chainer"},
	".hd5":          {"Keras", "Chainer"},
	".hdf5":         {"Keras", "Chainer"},
	".keras":        {"Keras"},
	".caffemodel":   {"Caffe"},
	".pt":           {"Caffe", "PyTorch"},
	".pth":          {"Keras", "PyTorch"},
	".pt1":          {"PyTorch"},
	".pkl":          {"PyTorch", "Sklearn"},
	".t7":           {"PyTorch", "Torch"},
	".dms":          {"PyTorch"},
	".pth.tar":      {"PyTorch"},
	".ckpt":         {"PyTorch", "TF"},
	".bin":          {"PyTorch", "TFLite", "Ncnn"},
	".tar":          {"PyTorch"},
	".dat":          {"Torch"},
	".dlc":          {"SNPE"},
	".feathermodel": {"FeatherCNN"},
	".tflite":       {"TFLite"},
	".lite":         {"TFLite"},
	".tfl":          {"TFLite"},
	".meta":         {"TF"},
	".index":        {"TF"},
	".joblib":       {"Sklearn"},
	".armnn":        {"armNN"},
	".mnn":          {"Mnn"},
	".param":        {"Ncnn"},
	".cfg.ncnn":     {"Ncnn"},
	".weights.ncnn": {"Ncnn"},
	".ncnn":         {"Ncnn"},
	".tmfile":       {"Tengine"},
	".bson":         {"Flux"},
	".npz":          {"Chainer"},
	".chainermodel": {"Chainer"},
}

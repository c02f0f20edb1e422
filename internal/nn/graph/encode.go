package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/gaugenn/gaugenn/internal/errs"
)

// binCodecVersion gates the binary graph encoding of the store's graph
// blobs: this version byte, then the graph body. Every field of Graph,
// Layer, Attrs, Tensor and Weight is written in fixed declaration order;
// adding a field to any of those structs requires extending the codec and
// bumping this version (TestEncodeBinaryCoversAttrs pins the field count).
// The body is also the body of every binary model container in
// internal/nn/formats (tflite, tf, onnx, snpe), so a layout change alters
// the APKs internal/playstore builds as well and needs a packagingVersion
// bump there; TestAPKRecipeGolden fails until it is made.
const binCodecVersion = 1

// Count caps of the reader: a count past its cap is malformed, whatever
// bytes follow it.
const (
	maxTensors = 1 << 16 // graph inputs or outputs
	maxLayers  = 1 << 20
	maxFan     = 1 << 12 // one layer's inputs, outputs or weights
)

// The encoded sizes of an empty tensor, weight and layer: the fewest bytes
// one list element takes, so a count the bytes left cannot hold is
// rejected before anything is allocated for it.
var (
	minTensor = sizeOf(func(w *BinWriter) { w.tensor(Tensor{}) })
	minWeight = sizeOf(func(w *BinWriter) { w.Weight(Weight{}) })
	minLayer  = sizeOf(func(w *BinWriter) { w.layer(&Layer{}) })
)

func sizeOf(write func(*BinWriter)) int {
	var w BinWriter
	write(&w)
	return len(w.Buf)
}

// EncodeBinary serialises a graph to the store's compact binary form:
// little-endian, length-prefixed, weight bytes raw (no base64 inflation).
// The encoding is deterministic — equal graphs encode to equal bytes — and
// lossless.
func EncodeBinary(g *Graph) []byte {
	w := NewBinWriter(g, 1)
	w.u8(binCodecVersion)
	w.body(g)
	return w.Buf
}

// DecodeBinary reverses EncodeBinary. The graph borrows its weight bytes
// from data instead of copying them, so data must not change while the
// graph lives: every caller passes a buffer it has just read.
func DecodeBinary(data []byte) (*Graph, error) {
	r := NewBinReader(data)
	if v := r.u8(); r.err == nil && v != binCodecVersion {
		return nil, fmt.Errorf("graph: binary codec version %d, want %d", v, binCodecVersion)
	}
	g := r.body()
	r.end()
	if r.err != nil {
		return nil, r.err
	}
	return g, nil
}

// EncodeStored is the store's graph blob for g: EncodeBinary(g) followed
// by a little-endian CRC-32 (IEEE) of those bytes. The model checksum,
// the blob's key, covers only operators and weights, so the trailer is
// what holds every other byte of the blob (shapes, strides, names) to
// what was written.
func EncodeStored(g *Graph) []byte {
	w := NewBinWriter(g, 1+crc32.Size)
	w.u8(binCodecVersion)
	w.body(g)
	w.U32(crc32.ChecksumIEEE(w.Buf))
	return w.Buf
}

// DecodeStored decodes the graph blob stored under key, the model's
// checksum, and holds it to that key: a blob whose trailer is not the
// CRC-32 of the bytes before it is not decoded at all, and one that does
// not decode, or decodes to another model, is not the graph its key names.
// Every reader of stored graphs applies this one rule, and its errors wrap
// errs.ErrStoreCorrupt; a blob written before the trailer existed fails it
// too, and is rewritten like any corrupt one.
func DecodeStored(data []byte, key Checksum) (*Graph, error) {
	n := len(data) - crc32.Size
	if n < 0 || crc32.ChecksumIEEE(data[:n]) != binary.LittleEndian.Uint32(data[n:]) {
		return nil, fmt.Errorf("graph blob fails its CRC-32: %w", errs.ErrStoreCorrupt)
	}
	g, err := DecodeBinary(data[:n])
	if err != nil {
		return nil, fmt.Errorf("graph blob does not decode: %v: %w", err, errs.ErrStoreCorrupt)
	}
	if sum := ModelChecksum(g); sum != key {
		return nil, fmt.Errorf("graph blob decodes to checksum %.12s, not its key: %w", sum, errs.ErrStoreCorrupt)
	}
	return g, nil
}

// BinWriter appends the binary graph encoding to Buf: little-endian
// integers, length-prefixed strings and byte records. The model formats
// frame graph bodies and weights with it.
type BinWriter struct{ Buf []byte }

// NewBinWriter returns a writer with room for g's body plus head bytes of
// framing, so that encoding g rarely regrows the buffer.
func NewBinWriter(g *Graph, head int) *BinWriter {
	size := head + 64 + len(g.Name) + 64*(len(g.Inputs)+len(g.Outputs))
	for i := range g.Layers {
		size += minLayer + 128
		for _, wt := range g.Layers[i].Weights {
			size += minWeight + 64 + len(wt.Data)
		}
	}
	return &BinWriter{Buf: make([]byte, 0, size)}
}

func (w *BinWriter) u8(v uint8) { w.Buf = append(w.Buf, v) }

// U32 writes a little-endian uint32.
func (w *BinWriter) U32(v uint32) { w.Buf = binary.LittleEndian.AppendUint32(w.Buf, v) }

func (w *BinWriter) u64(v uint64)  { w.Buf = binary.LittleEndian.AppendUint64(w.Buf, v) }
func (w *BinWriter) i64(v int)     { w.u64(uint64(v)) }
func (w *BinWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *BinWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// Str writes a length-prefixed string.
func (w *BinWriter) Str(s string) {
	w.U32(uint32(len(s)))
	w.Buf = append(w.Buf, s...)
}

func (w *BinWriter) ints(v []int) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.i64(x)
	}
}

func (w *BinWriter) strs(v []string) {
	w.U32(uint32(len(v)))
	for _, s := range v {
		w.Str(s)
	}
}

// Graph writes g's body behind its length. The body is written in place
// and its length filled in after, so a container needs no second buffer.
func (w *BinWriter) Graph(g *Graph) {
	at := len(w.Buf)
	w.U32(0)
	w.body(g)
	binary.LittleEndian.PutUint32(w.Buf[at:], uint32(len(w.Buf)-at-4))
}

// body writes the graph's name, inputs, outputs and layers.
func (w *BinWriter) body(g *Graph) {
	w.Str(g.Name)
	for _, ts := range [][]Tensor{g.Inputs, g.Outputs} {
		w.U32(uint32(len(ts)))
		for _, t := range ts {
			w.tensor(t)
		}
	}
	w.U32(uint32(len(g.Layers)))
	for i := range g.Layers {
		w.layer(&g.Layers[i])
	}
}

func (w *BinWriter) tensor(t Tensor) {
	w.Str(t.Name)
	w.ints(t.Shape)
	w.u8(uint8(t.DType))
}

// Weight writes one weight: a tensor's name, shape and dtype, then its
// raw bytes.
func (w *BinWriter) Weight(wt Weight) {
	w.tensor(Tensor{Name: wt.Name, Shape: wt.Shape, DType: wt.DType})
	w.U32(uint32(len(wt.Data)))
	w.Buf = append(w.Buf, wt.Data...)
}

func (w *BinWriter) layer(l *Layer) {
	w.Str(l.Name)
	w.u8(uint8(l.Op))
	w.strs(l.Inputs)
	w.strs(l.Outputs)
	w.attrs(&l.Attrs)
	w.U32(uint32(len(l.Weights)))
	for _, wt := range l.Weights {
		w.Weight(wt)
	}
}

func (w *BinWriter) attrs(a *Attrs) {
	w.i64(a.KernelH)
	w.i64(a.KernelW)
	w.i64(a.StrideH)
	w.i64(a.StrideW)
	w.bool(a.PadSame)
	w.i64(a.PadH)
	w.i64(a.PadW)
	w.i64(a.Filters)
	w.i64(a.Units)
	w.i64(a.Axis)
	w.i64(a.TargetH)
	w.i64(a.TargetW)
	w.i64(a.TimeSteps)
	w.i64(a.VocabSize)
	w.u8(uint8(a.Fused))
	w.f64(a.Scale)
	w.i64(a.ZeroPoint)
	w.ints(a.Begin)
	w.ints(a.Size)
	w.ints(a.NewShape)
	w.i64(a.DepthMult)
	w.bool(a.KeepDims)
	w.ints(a.ReduceAxes)
	w.u8(uint8(a.OutDType))
	w.bool(a.OutDTypeSet)
	w.i64(a.Dilation)
	w.i64(a.Groups)
	w.bool(a.SqueezeBatch)
}

// BinReader reads what BinWriter writes. Its error is sticky: after the
// first truncated or implausible record every read returns a zero value,
// so a decoder checks Err once, after its last read. Empty lists read as
// nil, and byte records borrow the reader's buffer instead of copying it.
type BinReader struct {
	buf []byte
	off int
	err error
}

// NewBinReader returns a reader over buf.
func NewBinReader(buf []byte) *BinReader { return &BinReader{buf: buf} }

// Err returns the first read's error, or nil.
func (r *BinReader) Err() error { return r.err }

func (r *BinReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("graph: binary %s at offset %d", fmt.Sprintf(format, args...), r.off)
	}
}

// take returns the next n bytes, borrowed from the buffer.
func (r *BinReader) take(n int, what string) []byte {
	if r.err == nil && (n < 0 || n > len(r.buf)-r.off) {
		r.fail("%s truncated", what)
	}
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// end fails the read unless it consumed the whole buffer.
func (r *BinReader) end() {
	if r.err == nil && r.off != len(r.buf) {
		r.fail("has %d trailing bytes", len(r.buf)-r.off)
	}
}

func (r *BinReader) u8() uint8 {
	if b := r.take(1, "u8"); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *BinReader) U32() uint32 {
	if b := r.take(4, "u32"); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *BinReader) u64() uint64 {
	if b := r.take(8, "u64"); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *BinReader) i64() int     { return int(r.u64()) }
func (r *BinReader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *BinReader) bool() bool   { return r.u8() != 0 }

// Str reads a length-prefixed string.
func (r *BinReader) Str() string { return string(r.take(int(r.U32()), "string")) }

func (r *BinReader) bytes() []byte {
	if b := r.take(int(r.U32()), "bytes"); len(b) > 0 {
		return b
	}
	return nil
}

// list reads a count and then that many elements. The count must be at
// most max and fit in the bytes left at size bytes an element.
func list[T any](r *BinReader, what string, max, size int, read func(*BinReader) T) []T {
	n := int(r.U32())
	if r.err == nil && (n < 0 || n > max || n > (len(r.buf)-r.off)/size) {
		r.fail("%s count %d implausible", what, n)
	}
	if r.err != nil || n == 0 {
		return nil
	}
	v := make([]T, n)
	for i := range v {
		if v[i] = read(r); r.err != nil {
			return nil
		}
	}
	return v
}

func (r *BinReader) ints() []int { return list(r, "int", math.MaxInt32, 8, (*BinReader).i64) }

func (r *BinReader) strs() []string { return list(r, "layer tensor", maxFan, 4, (*BinReader).Str) }

// Graph reads a body BinWriter.Graph wrote. The body must fill its length
// exactly.
func (r *BinReader) Graph() *Graph {
	body := NewBinReader(r.take(int(r.U32()), "graph body"))
	g := body.body()
	body.end()
	if r.err == nil {
		r.err = body.err
	}
	if r.err != nil {
		return nil
	}
	return g
}

func (r *BinReader) body() *Graph {
	g := &Graph{Name: r.Str()}
	g.Inputs = list(r, "input", maxTensors, minTensor, (*BinReader).tensor)
	g.Outputs = list(r, "output", maxTensors, minTensor, (*BinReader).tensor)
	g.Layers = list(r, "layer", maxLayers, minLayer, (*BinReader).layer)
	return g
}

func (r *BinReader) tensor() Tensor {
	return Tensor{Name: r.Str(), Shape: r.ints(), DType: DType(r.u8())}
}

// Weight reads one weight BinWriter.Weight wrote; its Data borrows the
// reader's buffer.
func (r *BinReader) Weight() Weight {
	t := r.tensor()
	return Weight{Name: t.Name, Shape: t.Shape, DType: t.DType, Data: r.bytes()}
}

func (r *BinReader) layer() Layer {
	l := Layer{Name: r.Str(), Op: OpType(r.u8()), Inputs: r.strs(), Outputs: r.strs()}
	r.attrs(&l.Attrs)
	l.Weights = list(r, "weight", maxFan, minWeight, (*BinReader).Weight)
	return l
}

func (r *BinReader) attrs(a *Attrs) {
	a.KernelH = r.i64()
	a.KernelW = r.i64()
	a.StrideH = r.i64()
	a.StrideW = r.i64()
	a.PadSame = r.bool()
	a.PadH = r.i64()
	a.PadW = r.i64()
	a.Filters = r.i64()
	a.Units = r.i64()
	a.Axis = r.i64()
	a.TargetH = r.i64()
	a.TargetW = r.i64()
	a.TimeSteps = r.i64()
	a.VocabSize = r.i64()
	a.Fused = OpType(r.u8())
	a.Scale = r.f64()
	a.ZeroPoint = r.i64()
	a.Begin = r.ints()
	a.Size = r.ints()
	a.NewShape = r.ints()
	a.DepthMult = r.i64()
	a.KeepDims = r.bool()
	a.ReduceAxes = r.ints()
	a.OutDType = DType(r.u8())
	a.OutDTypeSet = r.bool()
	a.Dilation = r.i64()
	a.Groups = r.i64()
	a.SqueezeBatch = r.bool()
}

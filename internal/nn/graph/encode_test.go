package graph

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/gaugenn/gaugenn/internal/errs"
)

// fullGraph populates every field the binary codec must carry, including
// every Attrs member.
func fullGraph() *Graph {
	return &Graph{
		Name:    "codec_fixture",
		Inputs:  []Tensor{{Name: "image", Shape: Shape{1, 8, 8, 3}, DType: Float32}},
		Outputs: []Tensor{{Name: "probs", Shape: Shape{1, 4}, DType: Float32}},
		Layers: []Layer{
			{
				Name: "conv", Op: OpConv2D,
				Inputs: []string{"image"}, Outputs: []string{"feat"},
				Attrs: Attrs{
					KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2,
					PadSame: true, PadH: 1, PadW: 1, Filters: 4, Units: 7,
					Axis: 3, TargetH: 16, TargetW: 16, TimeSteps: 5, VocabSize: 100,
					Fused: OpReLU, Scale: 0.125, ZeroPoint: -3,
					Begin: []int{0, 1}, Size: []int{2, 3}, NewShape: []int{1, 4},
					DepthMult: 2, KeepDims: true, ReduceAxes: []int{1, 2},
					OutDType: Int8, OutDTypeSet: true, Dilation: 2, Groups: 2,
					SqueezeBatch: true,
				},
				Weights: []Weight{{
					Name: "conv/w", Shape: Shape{3, 3, 3, 4}, DType: Float32,
					Data: bytes.Repeat([]byte{1, 2, 3, 4}, 108),
				}},
			},
			{
				Name: "head", Op: OpDense,
				Inputs: []string{"feat"}, Outputs: []string{"probs"},
				Attrs: Attrs{Units: 4},
				Weights: []Weight{{
					Name: "head/w", Shape: Shape{16}, DType: Int8,
					Data: bytes.Repeat([]byte{9}, 16),
				}},
			},
		},
	}
}

func TestEncodeBinaryRoundTrip(t *testing.T) {
	g := fullGraph()
	data := EncodeBinary(g)
	got, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g, got) {
		t.Fatalf("round trip changed the graph:\n%+v\n%+v", g, got)
	}
	// Deterministic: re-encoding the decoded graph is byte-identical.
	if !bytes.Equal(data, EncodeBinary(got)) {
		t.Fatal("encode(decode(encode)) not byte-stable")
	}
	if ModelChecksum(g) != ModelChecksum(got) {
		t.Fatal("round trip changed the model checksum")
	}
}

// TestEncodeBinaryCoversAttrs pins the field counts the codec was written
// against: adding a field to these structs without extending the codec
// (and bumping binCodecVersion) must fail here, not silently drop data.
func TestEncodeBinaryCoversAttrs(t *testing.T) {
	for _, pin := range []struct {
		typ  reflect.Type
		want int
	}{
		{reflect.TypeOf(Attrs{}), 28},
		{reflect.TypeOf(Tensor{}), 3},
		{reflect.TypeOf(Weight{}), 4},
		{reflect.TypeOf(Layer{}), 6},
		{reflect.TypeOf(Graph{}), 4},
	} {
		if got := pin.typ.NumField(); got != pin.want {
			t.Errorf("%s has %d fields, codec covers %d — extend encode.go and bump binCodecVersion",
				pin.typ.Name(), got, pin.want)
		}
	}
}

func TestDecodeBinaryRejectsCorruption(t *testing.T) {
	data := EncodeBinary(fullGraph())
	if _, err := DecodeBinary(data[:len(data)/2]); err == nil {
		t.Fatal("truncated blob must not decode")
	}
	if _, err := DecodeBinary(append(append([]byte(nil), data...), 0xff)); err == nil {
		t.Fatal("trailing bytes must not decode")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 99 // version byte
	if _, err := DecodeBinary(bad); err == nil {
		t.Fatal("future codec version must not decode")
	}
	if _, err := DecodeBinary(nil); err == nil {
		t.Fatal("empty blob must not decode")
	}
	// No name, inputs or outputs, then 2^32-1 layers in no bytes.
	if _, err := DecodeBinary([]byte{binCodecVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("a layer count the blob cannot hold must not decode")
	}
}

// TestDecodeStoredHoldsBlobToKey: a graph blob decodes only under its own
// model checksum, with its CRC-32 trailer intact; a flipped weight bit, a
// flipped stride (which the checksum does not cover), a truncation and a
// blob without the trailer are ErrStoreCorrupt.
func TestDecodeStoredHoldsBlobToKey(t *testing.T) {
	g := fullGraph()
	key := ModelChecksum(g)
	data := EncodeStored(g)
	body := EncodeBinary(g)
	if !bytes.Equal(data[:len(body)], body) || len(data) != len(body)+4 {
		t.Fatal("EncodeStored is not EncodeBinary plus a 4-byte trailer")
	}
	if _, err := DecodeStored(data, key); err != nil {
		t.Fatalf("intact blob: %v", err)
	}
	weight := append([]byte(nil), data...)
	weight[len(body)-1] ^= 1 // the last byte of the head layer's weight
	stride := fullGraph()
	stride.Layers[0].Attrs.StrideH = 3
	if ModelChecksum(stride) != key {
		t.Fatal("the model checksum covers StrideH; pick a field it does not")
	}
	strideBody := EncodeBinary(stride)
	strideFlip := append(append([]byte(nil), strideBody...), data[len(body):]...)
	for name, blob := range map[string][]byte{
		"flipped weight bit": weight, "flipped stride": strideFlip,
		"truncated": data[:len(data)/2], "no trailer": body, "empty": nil,
	} {
		if _, err := DecodeStored(blob, key); !errors.Is(err, errs.ErrStoreCorrupt) {
			t.Errorf("%s: got %v, want ErrStoreCorrupt", name, err)
		}
	}
}

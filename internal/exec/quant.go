package exec

import (
	"encoding/binary"
	"math"

	"github.com/gaugenn/gaugenn/internal/nn/graph"
)

// Quantization scheme (documented in docs/exec.md):
//
//   - Per-tensor affine: real = (q - zeroPoint) · scale. int8 and int16
//     are symmetric (zeroPoint 0); uint8 centres on 128.
//   - Weights are symmetric int8 with a model-wide scale resolved at
//     compile time (Attrs.Scale on the layer, else the model's quantize
//     layer, else DefaultWeightScale).
//   - Activations are dynamic-range quantized: each producing op computes
//     its real-valued output and requantizes with scale = maxabs/limit,
//     zeroPoint 0 (128 for uint8). No calibration pass exists — the corpus
//     ships no calibration data — and dynamic ranges keep the path
//     deterministic: same input, same scales, same bytes.
//   - Storing rounds half to even and saturates: a value past the dtype's
//     range stores its nearest end, and NaN stores the zero point.

// decodeFloat32 reinterprets little-endian fp32 weight bytes.
func decodeFloat32(data []byte) []float32 {
	out := make([]float32, len(data)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[i*4:]))
	}
	return out
}

// decodeFloat16 widens IEEE 754 half-precision weight bytes to fp32.
func decodeFloat16(data []byte) []float32 {
	out := make([]float32, len(data)/2)
	for i := range out {
		out[i] = f16to32(binary.LittleEndian.Uint16(data[i*2:]))
	}
	return out
}

func f16to32(h uint16) float32 {
	sign := uint32(h>>15) << 31
	exp := uint32(h>>10) & 0x1f
	frac := uint32(h) & 0x3ff
	switch exp {
	case 0:
		if frac == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalise into fp32's wider exponent range.
		e := uint32(127 - 15 + 1)
		for frac&0x400 == 0 {
			frac <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (frac&0x3ff)<<13)
	case 0x1f:
		return math.Float32frombits(sign | 0xff<<23 | frac<<13)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | frac<<13)
	}
}

// decodeInt8 widens symmetric int8 weight bytes with their per-tensor
// scale (used for small secondary tensors — bias, γ/β, α — where a copy
// is cheaper than three more kernel variants; the heavy conv/dense kernel
// tensors stay zero-copy in step.wRaw).
func decodeInt8(data []byte, scale float64) []float32 {
	out := make([]float32, len(data))
	s := float32(scale)
	for i, b := range data {
		out[i] = float32(int8(b)) * s
	}
	return out
}

// quantLimit returns the symmetric clamp magnitude for a dtype.
func quantLimit(dt graph.DType) float64 {
	switch dt {
	case graph.Int16:
		return 32767
	default: // int8, uint8
		return 127
	}
}

// requantize stores real-valued src into the quantized byte buffer dst
// with the given scale/zeroPoint (see quantCode).
func requantize(dst []byte, src []float32, dt graph.DType, scale float64, zp int32) {
	inv := 0.0
	if scale != 0 {
		inv = 1 / scale
	}
	lo, hi := quantRange(dt)
	z := float64(zp)
	switch dt {
	case graph.UInt8:
		for i, v := range src {
			dst[i] = byte(quantCode(v, inv, z, lo, hi))
		}
	case graph.Int16:
		for i, v := range src {
			binary.LittleEndian.PutUint16(dst[i*2:], uint16(int16(quantCode(v, inv, z, lo, hi))))
		}
	default: // Int8
		for i, v := range src {
			dst[i] = byte(int8(quantCode(v, inv, z, lo, hi)))
		}
	}
}

// quantCode rounds v·inv half to even, adds the zero point and clamps the
// result to [lo, hi], all in float64, before converting it to an integer:
// values past the range saturate to its ends, and NaN stores the zero
// point. Go leaves a float-to-integer conversion out of the target's range
// implementation-defined (amd64 yields MinInt32), so converting before
// clamping would store a large positive value as the most negative code.
func quantCode(v float32, inv, zp, lo, hi float64) int32 {
	r := math.RoundToEven(float64(v) * inv)
	if r != r {
		r = 0
	}
	q := r + zp
	if q < lo {
		q = lo
	} else if q > hi {
		q = hi
	}
	return int32(q)
}

// quantRange returns the codes a quantized dtype can store.
func quantRange(dt graph.DType) (lo, hi float64) {
	switch dt {
	case graph.UInt8:
		return 0, 255
	case graph.Int16:
		return -32768, 32767
	default: // int8
		return -128, 127
	}
}

// dequantize expands quantized bytes into real values.
func dequantize(dst []float32, src []byte, dt graph.DType, scale float64, zp int32) {
	if scale == 0 {
		scale = 1
	}
	s := float32(scale)
	switch dt {
	case graph.UInt8:
		for i := range dst {
			dst[i] = float32(int32(src[i])-zp) * s
		}
	case graph.Int16:
		for i := range dst {
			q := int32(int16(binary.LittleEndian.Uint16(src[i*2:])))
			dst[i] = float32(q-zp) * s
		}
	default: // Int8
		for i := range dst {
			dst[i] = float32(int32(int8(src[i]))-zp) * s
		}
	}
}

// absMax folds the dynamic range of x into m: it returns the largest of m
// and every |v|. |v| is v with its sign bit cleared, so no branch depends
// on a value's sign; NaN never compares greater and is ignored, and -0
// counts as 0.
func absMax(m float32, x []float32) float32 {
	for _, v := range x {
		if a := math.Float32frombits(math.Float32bits(v) &^ (1 << 31)); a > m {
			m = a
		}
	}
	return m
}

// splitmix64 is the deterministic input generator: one multiply-shift
// round per element, seeded per run and per tensor, allocation-free.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

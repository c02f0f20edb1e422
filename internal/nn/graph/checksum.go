package graph

import (
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Checksum is the md5-based identity gaugeNN uses for model uniqueness
// (Section 4.5): "we perform an md5 checksum on both the model and weights".
type Checksum string

// LayerChecksum hashes a single layer's weight bytes (together with its op
// and weight shapes, so empty-weight layers of different kinds differ).
func LayerChecksum(l *Layer) Checksum {
	h := md5.New()
	var opb [1]byte
	opb[0] = byte(l.Op)
	h.Write(opb[:])
	for _, w := range l.Weights {
		var dims [8]byte
		for _, d := range w.Shape {
			binary.LittleEndian.PutUint64(dims[:], uint64(d))
			h.Write(dims[:])
		}
		h.Write(w.Data)
	}
	return Checksum(hex.EncodeToString(h.Sum(nil)))
}

// ModelChecksum hashes the whole model: topology (ops in order) plus every
// weight byte. Two apps shipping the same off-the-shelf model produce equal
// checksums regardless of the file name they chose.
func ModelChecksum(g *Graph) Checksum {
	h := md5.New()
	for i := range g.Layers {
		h.Write([]byte{byte(g.Layers[i].Op)})
		for _, w := range g.Layers[i].Weights {
			h.Write(w.Data)
		}
	}
	return Checksum(hex.EncodeToString(h.Sum(nil)))
}

// LayerChecksums returns per-layer checksums in layer order, the input to
// the paper's fine-tuning analysis ("checksum-based analysis at finer
// granularity (layer-level)").
func LayerChecksums(g *Graph) []Checksum {
	out := make([]Checksum, len(g.Layers))
	for i := range g.Layers {
		out[i] = LayerChecksum(&g.Layers[i])
	}
	return out
}

// WeightedLayerChecksums returns checksums only for layers carrying
// weights. Weightless layers (activations, pooling, reshapes) hash
// identically across unrelated models, so the fine-tuning analysis of
// Section 4.5 must ignore them — the paper compares shared *weights*.
func WeightedLayerChecksums(g *Graph) []Checksum {
	var out []Checksum
	for i := range g.Layers {
		if len(g.Layers[i].Weights) > 0 {
			out = append(out, LayerChecksum(&g.Layers[i]))
		}
	}
	return out
}

// SharedLayerFraction returns the fraction of a's layers whose checksum also
// appears in b. The paper reports models sharing >= 20% of weights as
// fine-tuned relatives.
func SharedLayerFraction(a, b *Graph) float64 {
	if len(a.Layers) == 0 {
		return 0
	}
	bset := make(map[Checksum]bool, len(b.Layers))
	for _, c := range LayerChecksums(b) {
		bset[c] = true
	}
	shared := 0
	for _, c := range LayerChecksums(a) {
		if bset[c] {
			shared++
		}
	}
	return float64(shared) / float64(len(a.Layers))
}

// DifferingLayers counts layers of a whose checksum has no match in b plus
// the layer-count difference; the paper flags pairs differing in <= 3 layers
// as last-layers fine-tuning.
func DifferingLayers(a, b *Graph) int {
	bset := make(map[Checksum]int, len(b.Layers))
	for _, c := range LayerChecksums(b) {
		bset[c]++
	}
	diff := 0
	for _, c := range LayerChecksums(a) {
		if bset[c] > 0 {
			bset[c]--
		} else {
			diff++
		}
	}
	if extra := len(b.Layers) - (len(a.Layers) - diff); extra > diff {
		diff = extra
	}
	return diff
}

// WeightStats summarises a model's weight population for the optimisation
// scan of Section 6.1.
type WeightStats struct {
	TotalParams int64
	// NearZero counts weights within ±1e-9, the paper's magnitude-pruning
	// prospect measurement ("3.15% of weights are near zero").
	NearZero int64
	// DTypeParams counts parameters per element type (int8 share feeds the
	// quantisation adoption numbers).
	DTypeParams map[DType]int64
	// ClusteredLayers / PrunedLayers count layers whose names carry the
	// TFLite optimisation prefixes "cluster_" / "prune_".
	ClusteredLayers int
	PrunedLayers    int
	// DequantizeOps counts dequantize layers, the deployment marker for
	// lower-precision models.
	DequantizeOps int
	// Int8Activations reports whether any non-weight tensor flows as int8.
	Int8Activations bool
	// Int16Activations reports int16 activation flow — combined with int8
	// weights this is the A16W8 hybrid scheme recent NPUs support, whose
	// adoption Section 6.1 looked for and did not find.
	Int16Activations bool
}

// NearZeroThreshold is the paper's ±1e-9 weight-magnitude cutoff.
const NearZeroThreshold = 1e-9

// CollectWeightStats scans every weight element. For float32 weights the
// raw little-endian bytes are decoded; integer weights count as near-zero
// only when exactly zero.
func CollectWeightStats(g *Graph) WeightStats {
	ws := WeightStats{DTypeParams: make(map[DType]int64)}
	for i := range g.Layers {
		l := &g.Layers[i]
		if hasPrefix(l.Name, "cluster_") {
			ws.ClusteredLayers++
		}
		if hasPrefix(l.Name, "prune_") {
			ws.PrunedLayers++
		}
		if l.Op == OpDequantize {
			ws.DequantizeOps++
		}
		if l.Op == OpQuantize && (!l.Attrs.OutDTypeSet || l.Attrs.OutDType == Int8 || l.Attrs.OutDType == UInt8) {
			ws.Int8Activations = true
		}
		if l.Op == OpQuantize && l.Attrs.OutDTypeSet && l.Attrs.OutDType == Int16 {
			ws.Int16Activations = true
		}
		for _, w := range l.Weights {
			n := w.Elements()
			ws.TotalParams += n
			ws.DTypeParams[w.DType] += n
			switch w.DType {
			case Float32:
				for off := 0; off+4 <= len(w.Data); off += 4 {
					bits := binary.LittleEndian.Uint32(w.Data[off:])
					v := math.Float32frombits(bits)
					if v > -NearZeroThreshold && v < NearZeroThreshold {
						ws.NearZero++
					}
				}
			case Int8, UInt8:
				for _, b := range w.Data {
					if b == 0 {
						ws.NearZero++
					}
				}
			}
		}
	}
	return ws
}

// Int8WeightFraction returns the fraction of parameters stored as int8 (or
// uint8), Section 6.1's "20.27% of the models use int8 for the weight
// tensors" numerator at model granularity: a model counts as int8-weighted
// when the majority of its parameters are 8-bit integers.
func (ws WeightStats) Int8WeightFraction() float64 {
	if ws.TotalParams == 0 {
		return 0
	}
	return float64(ws.DTypeParams[Int8]+ws.DTypeParams[UInt8]) / float64(ws.TotalParams)
}

// SparsityFraction returns NearZero / TotalParams.
func (ws WeightStats) SparsityFraction() float64 {
	if ws.TotalParams == 0 {
		return 0
	}
	return float64(ws.NearZero) / float64(ws.TotalParams)
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

package formats

import (
	"bytes"
	"fmt"

	"github.com/gaugenn/gaugenn/internal/nn/graph"
)

// encodeWeights writes the weight file of a two-file format (caffe's
// .caffemodel, ncnn's .bin): the format's magic, a weight count, then
// every weight in layer order behind its layer's name.
func encodeWeights(magic string, g *graph.Graph) []byte {
	var n uint32
	for i := range g.Layers {
		n += uint32(len(g.Layers[i].Weights))
	}
	w := graph.NewBinWriter(g, len(magic)+4)
	w.Buf = append(w.Buf, magic...)
	w.U32(n)
	for i := range g.Layers {
		for _, wt := range g.Layers[i].Weights {
			w.Str(g.Layers[i].Name)
			w.Weight(wt)
		}
	}
	return w.Buf
}

// attachWeights reads a file encodeWeights wrote and appends each weight
// to the layer of g it names. The weights borrow data.
func attachWeights(g *graph.Graph, magic string, data []byte) error {
	if !bytes.HasPrefix(data, []byte(magic)) {
		return fmt.Errorf("%w: weight file magic %q missing", ErrNotValid, magic)
	}
	r := graph.NewBinReader(data[len(magic):])
	n := int(r.U32())
	if r.Err() != nil || n > 1<<20 {
		return fmt.Errorf("%w: implausible weight count", ErrNotValid)
	}
	byName := map[string]*graph.Layer{}
	for i := range g.Layers {
		byName[g.Layers[i].Name] = &g.Layers[i]
	}
	for i := 0; i < n; i++ {
		layerName := r.Str()
		wt := r.Weight()
		if err := r.Err(); err != nil {
			return fmt.Errorf("%w: %v", ErrNotValid, err)
		}
		l, ok := byName[layerName]
		if !ok {
			return fmt.Errorf("%w: weights for unknown layer %q", ErrNotValid, layerName)
		}
		l.Weights = append(l.Weights, wt)
	}
	return nil
}

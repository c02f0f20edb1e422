package formats

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"github.com/gaugenn/gaugenn/internal/nn/graph"
)

// ncnnParamMagic is the first line of every ncnn .param file — the real
// format uses the same decimal magic.
const ncnnParamMagic = "7767517"

// ncnnBinMagic heads our .bin weight blob so orphaned binaries remain
// identifiable (real ncnn .bin files are raw; a tagged blob keeps the
// decode path honest without a side channel).
const ncnnBinMagic = "NCNNWB01"

// NCNN is Tencent's mobile inference format, found in 2.8% of the 2021
// models. A deployment is a text .param topology plus a .bin weight blob.
type NCNN struct{}

// Name implements Format.
func (NCNN) Name() string { return "ncnn" }

// Extensions implements Format.
func (NCNN) Extensions() []string {
	return []string{".param", ".bin", ".cfg.ncnn", ".weights.ncnn", ".ncnn"}
}

// Sniff implements Format: a .param starts with the 7767517 magic; a
// weight blob with the bin magic.
func (NCNN) Sniff(data []byte) bool {
	if bytes.HasPrefix(data, []byte(ncnnBinMagic)) {
		return true
	}
	head := data
	if len(head) > 32 {
		head = head[:32]
	}
	return strings.HasPrefix(strings.TrimSpace(string(head)), ncnnParamMagic)
}

// Encode implements Format: stem.param + stem.bin.
func (NCNN) Encode(g *graph.Graph, stem string) (FileSet, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("ncnn: refusing to encode invalid graph: %w", err)
	}
	var txt strings.Builder
	txt.WriteString(ncnnParamMagic + "\n")
	fmt.Fprintf(&txt, "%d %d\n", len(g.Layers), len(g.Inputs)+len(g.Outputs)+len(g.Layers))
	fmt.Fprintf(&txt, "#model %s\n", g.Name)
	for _, in := range g.Inputs {
		fmt.Fprintf(&txt, "#input %s %s %s\n", in.Name, in.Shape.String(), in.DType.String())
	}
	for _, out := range g.Outputs {
		fmt.Fprintf(&txt, "#output %s %s %s\n", out.Name, out.Shape.String(), out.DType.String())
	}
	for i := range g.Layers {
		l := &g.Layers[i]
		fmt.Fprintf(&txt, "%s %s %d %d", l.Op.String(), l.Name, len(l.Inputs), len(l.Outputs))
		for _, in := range l.Inputs {
			fmt.Fprintf(&txt, " %s", in)
		}
		for _, out := range l.Outputs {
			fmt.Fprintf(&txt, " %s", out)
		}
		for _, kv := range attrsToKV(l.Attrs) {
			fmt.Fprintf(&txt, " %s=%s", kv[0], kv[1])
		}
		txt.WriteString("\n")
	}

	return FileSet{
		stem + ".param": []byte(txt.String()),
		stem + ".bin":   encodeWeights(ncnnBinMagic, g),
	}, nil
}

// Decode implements Format.
func (NCNN) Decode(files FileSet) (*graph.Graph, error) {
	var param, bin []byte
	for name, data := range files {
		switch extensionOf(name) {
		case ".param", ".cfg.ncnn":
			param = data
		case ".bin", ".weights.ncnn":
			bin = data
		}
	}
	if param == nil {
		return nil, fmt.Errorf("%w: ncnn decode needs a .param", ErrNotValid)
	}
	g, err := parseNCNNParam(param)
	if err != nil {
		return nil, err
	}
	if bin != nil {
		if err := attachWeights(g, ncnnBinMagic, bin); err != nil {
			return nil, err
		}
	}
	return valid(g, nil)
}

func parseNCNNParam(data []byte) (*graph.Graph, error) {
	sc, release := newLineScanner(data)
	defer release()
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != ncnnParamMagic {
		return nil, fmt.Errorf("%w: ncnn param magic missing", ErrNotValid)
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("%w: ncnn param truncated", ErrNotValid)
	}
	counts := strings.Fields(sc.Text())
	if len(counts) != 2 {
		return nil, fmt.Errorf("%w: bad ncnn count line", ErrNotValid)
	}
	wantLayers, err := strconv.Atoi(counts[0])
	if err != nil {
		return nil, fmt.Errorf("%w: bad layer count", ErrNotValid)
	}
	g := &graph.Graph{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseNCNNDirective(g, line); err != nil {
				return nil, err
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			return nil, fmt.Errorf("%w: short ncnn layer line %q", ErrNotValid, line)
		}
		op, err := graph.ParseOp(fields[0])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNotValid, err)
		}
		nin, err1 := strconv.Atoi(fields[2])
		nout, err2 := strconv.Atoi(fields[3])
		if err1 != nil || err2 != nil || nin < 0 || nout < 0 {
			return nil, fmt.Errorf("%w: bad ncnn io counts in %q", ErrNotValid, line)
		}
		if len(fields) < 4+nin+nout {
			return nil, fmt.Errorf("%w: ncnn layer line missing tensors %q", ErrNotValid, line)
		}
		l := graph.Layer{Name: fields[1], Op: op}
		l.Inputs = append(l.Inputs, fields[4:4+nin]...)
		l.Outputs = append(l.Outputs, fields[4+nin:4+nin+nout]...)
		kv := map[string]string{}
		for _, f := range fields[4+nin+nout:] {
			eq := strings.IndexByte(f, '=')
			if eq <= 0 {
				return nil, fmt.Errorf("%w: bad ncnn attr %q", ErrNotValid, f)
			}
			kv[f[:eq]] = f[eq+1:]
		}
		attrs, err := kvToAttrs(kv)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrNotValid, err)
		}
		l.Attrs = attrs
		g.Layers = append(g.Layers, l)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotValid, err)
	}
	if len(g.Layers) != wantLayers {
		return nil, fmt.Errorf("%w: ncnn declares %d layers, found %d", ErrNotValid, wantLayers, len(g.Layers))
	}
	return g, nil
}

func parseNCNNDirective(g *graph.Graph, line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case "#model":
		if len(fields) >= 2 {
			g.Name = fields[1]
		}
	case "#input", "#output":
		if len(fields) != 4 {
			return fmt.Errorf("%w: bad ncnn io directive %q", ErrNotValid, line)
		}
		shape, err := parseShape(fields[2])
		if err != nil {
			return err
		}
		dt, err := graph.ParseDType(fields[3])
		if err != nil {
			return fmt.Errorf("%w: %v", ErrNotValid, err)
		}
		t := graph.Tensor{Name: fields[1], Shape: shape, DType: dt}
		if fields[0] == "#input" {
			g.Inputs = append(g.Inputs, t)
		} else {
			g.Outputs = append(g.Outputs, t)
		}
	}
	return nil
}

func init() { Register(NCNN{}) }

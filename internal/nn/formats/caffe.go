package formats

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"github.com/gaugenn/gaugenn/internal/nn/graph"
)

// Caffe is the long-deprecated framework the paper is surprised to still
// find in 10.6% of 2021-snapshot models. Deployments ship two files: a
// human-readable .prototxt network definition and a binary .caffemodel
// weight blob — "most apps distribute the model weights in their apk,
// either in a single file ... or in separate files (e.g. caffe)" (§4.5).
type Caffe struct{}

// caffeModelMagic heads the .caffemodel weight blob.
const caffeModelMagic = "CAFFWGT1"

// Name implements Format.
func (Caffe) Name() string { return "caffe" }

// Extensions implements Format: the prototxt is the primary definition
// file; weights use .caffemodel.
func (Caffe) Extensions() []string { return []string{".prototxt", ".pbtxt", ".caffemodel"} }

// Sniff implements Format: a prototxt starts with a name/layer stanza; a
// caffemodel starts with the weight-blob magic.
func (Caffe) Sniff(data []byte) bool {
	if bytes.HasPrefix(data, []byte(caffeModelMagic)) {
		return true
	}
	head := data
	if len(head) > 256 {
		head = head[:256]
	}
	s := strings.TrimSpace(string(head))
	return strings.HasPrefix(s, "name:") && strings.Contains(s, "layer")
}

// Encode implements Format: writes stem.prototxt and stem.caffemodel.
func (Caffe) Encode(g *graph.Graph, stem string) (FileSet, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("caffe: refusing to encode invalid graph: %w", err)
	}
	var txt strings.Builder
	fmt.Fprintf(&txt, "name: %q\n", g.Name)
	for _, in := range g.Inputs {
		fmt.Fprintf(&txt, "input { name: %q shape: %q dtype: %q }\n",
			in.Name, in.Shape.String(), in.DType.String())
	}
	for _, out := range g.Outputs {
		fmt.Fprintf(&txt, "output { name: %q shape: %q dtype: %q }\n",
			out.Name, out.Shape.String(), out.DType.String())
	}
	for i := range g.Layers {
		l := &g.Layers[i]
		fmt.Fprintf(&txt, "layer {\n  name: %q\n  type: %q\n", l.Name, l.Op.String())
		for _, in := range l.Inputs {
			fmt.Fprintf(&txt, "  bottom: %q\n", in)
		}
		for _, out := range l.Outputs {
			fmt.Fprintf(&txt, "  top: %q\n", out)
		}
		for _, kv := range attrsToKV(l.Attrs) {
			fmt.Fprintf(&txt, "  param { key: %q value: %q }\n", kv[0], kv[1])
		}
		fmt.Fprintf(&txt, "}\n")
	}

	return FileSet{
		stem + ".prototxt":   []byte(txt.String()),
		stem + ".caffemodel": encodeWeights(caffeModelMagic, g),
	}, nil
}

// Decode implements Format: it needs the prototxt; the caffemodel is
// optional (a prototxt alone decodes to a weightless skeleton, which then
// fails validation exactly like an orphaned definition file would).
func (Caffe) Decode(files FileSet) (*graph.Graph, error) {
	var proto, weights []byte
	for name, data := range files {
		switch extensionOf(name) {
		case ".prototxt", ".pbtxt":
			proto = data
		case ".caffemodel":
			weights = data
		}
	}
	if proto == nil {
		return nil, fmt.Errorf("%w: caffe decode needs a .prototxt", ErrNotValid)
	}
	g, err := parsePrototxt(proto)
	if err != nil {
		return nil, err
	}
	if weights != nil {
		if err := attachWeights(g, caffeModelMagic, weights); err != nil {
			return nil, err
		}
	}
	return valid(g, nil)
}

func parsePrototxt(data []byte) (*graph.Graph, error) {
	g := &graph.Graph{}
	sc, release := newLineScanner(data)
	defer release()
	var cur *graph.Layer
	kv := map[string]string{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "name:") && cur == nil && g.Name == "":
			g.Name = unquote(strings.TrimSpace(strings.TrimPrefix(line, "name:")))
		case strings.HasPrefix(line, "input {"):
			t, err := parseIOLine(line)
			if err != nil {
				return nil, err
			}
			g.Inputs = append(g.Inputs, t)
		case strings.HasPrefix(line, "output {"):
			t, err := parseIOLine(line)
			if err != nil {
				return nil, err
			}
			g.Outputs = append(g.Outputs, t)
		case line == "layer {":
			cur = &graph.Layer{}
			kv = map[string]string{}
		case line == "}" && cur != nil:
			attrs, err := kvToAttrs(kv)
			if err != nil {
				return nil, fmt.Errorf("%w: layer %q: %v", ErrNotValid, cur.Name, err)
			}
			cur.Attrs = attrs
			g.Layers = append(g.Layers, *cur)
			cur = nil
		case cur != nil && strings.HasPrefix(line, "name:"):
			cur.Name = unquote(strings.TrimSpace(strings.TrimPrefix(line, "name:")))
		case cur != nil && strings.HasPrefix(line, "type:"):
			op, err := graph.ParseOp(unquote(strings.TrimSpace(strings.TrimPrefix(line, "type:"))))
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrNotValid, err)
			}
			cur.Op = op
		case cur != nil && strings.HasPrefix(line, "bottom:"):
			cur.Inputs = append(cur.Inputs, unquote(strings.TrimSpace(strings.TrimPrefix(line, "bottom:"))))
		case cur != nil && strings.HasPrefix(line, "top:"):
			cur.Outputs = append(cur.Outputs, unquote(strings.TrimSpace(strings.TrimPrefix(line, "top:"))))
		case cur != nil && strings.HasPrefix(line, "param {"):
			k, v, err := parseParamLine(line)
			if err != nil {
				return nil, err
			}
			kv[k] = v
		default:
			// Unknown stanzas are skipped, as a lenient parser would.
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotValid, err)
	}
	if cur != nil {
		return nil, fmt.Errorf("%w: unterminated layer stanza", ErrNotValid)
	}
	return g, nil
}

// parseIOLine parses `input { name: "x" shape: "1x2x3" dtype: "float32" }`.
func parseIOLine(line string) (graph.Tensor, error) {
	var t graph.Tensor
	fields := map[string]string{}
	rest := line
	for {
		qi := strings.IndexByte(rest, '"')
		if qi < 0 {
			break
		}
		qj := strings.IndexByte(rest[qi+1:], '"')
		if qj < 0 {
			return t, fmt.Errorf("%w: unbalanced quotes in %q", ErrNotValid, line)
		}
		val := rest[qi+1 : qi+1+qj]
		keyPart := strings.TrimSpace(rest[:qi])
		keyFields := strings.Fields(keyPart)
		if len(keyFields) == 0 {
			return t, fmt.Errorf("%w: malformed io line %q", ErrNotValid, line)
		}
		key := strings.TrimSuffix(keyFields[len(keyFields)-1], ":")
		fields[key] = val
		rest = rest[qi+1+qj+1:]
	}
	t.Name = fields["name"]
	if t.Name == "" {
		return t, fmt.Errorf("%w: io line missing name: %q", ErrNotValid, line)
	}
	shape, err := parseShape(fields["shape"])
	if err != nil {
		return t, err
	}
	t.Shape = shape
	dt, err := graph.ParseDType(fields["dtype"])
	if err != nil {
		return t, fmt.Errorf("%w: %v", ErrNotValid, err)
	}
	t.DType = dt
	return t, nil
}

func parseParamLine(line string) (string, string, error) {
	t, err := parseIOLineGeneric(line)
	if err != nil {
		return "", "", err
	}
	return t["key"], t["value"], nil
}

func parseIOLineGeneric(line string) (map[string]string, error) {
	fields := map[string]string{}
	rest := line
	for {
		qi := strings.IndexByte(rest, '"')
		if qi < 0 {
			break
		}
		qj := strings.IndexByte(rest[qi+1:], '"')
		if qj < 0 {
			return nil, fmt.Errorf("%w: unbalanced quotes in %q", ErrNotValid, line)
		}
		val := rest[qi+1 : qi+1+qj]
		keyPart := strings.TrimSpace(rest[:qi])
		keyFields := strings.Fields(keyPart)
		if len(keyFields) == 0 {
			return nil, fmt.Errorf("%w: malformed line %q", ErrNotValid, line)
		}
		key := strings.TrimSuffix(keyFields[len(keyFields)-1], ":")
		fields[key] = val
		rest = rest[qi+1+qj+1:]
	}
	return fields, nil
}

func parseShape(s string) (graph.Shape, error) {
	if s == "" || s == "scalar" {
		return graph.Shape{}, nil
	}
	parts := strings.Split(s, "x")
	out := make(graph.Shape, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("%w: bad shape %q", ErrNotValid, s)
		}
		out[i] = v
	}
	return out, nil
}

func unquote(s string) string {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1]
	}
	return s
}

func init() { Register(Caffe{}) }

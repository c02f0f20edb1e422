package dex

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

func rawFixture() *Dex {
	return &Dex{Classes: []Class{
		{
			Name: "Lcom/a/Main;",
			Methods: []Method{
				{Name: "onCreate", Calls: []string{
					"Lorg/tensorflow/lite/Interpreter;-><init>()V",
					"Lcom/a/Helper;->go()",
				}},
				{Name: "stop", Calls: nil},
			},
		},
		{
			Name: "Lcom/a/Helper;",
			Methods: []Method{
				{Name: "go", Calls: []string{"Lcom/a/Helper;->go()"}},
			},
		},
	}}
}

func TestParseRawMatchesDecode(t *testing.T) {
	enc := rawFixture().Encode()
	d, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := ParseRaw(enc)
	if err != nil {
		t.Fatal(err)
	}
	if rd.NumClasses() != len(d.Classes) {
		t.Fatalf("classes = %d, want %d", rd.NumClasses(), len(d.Classes))
	}
	for i, c := range d.Classes {
		if string(rd.ClassName(i)) != c.Name {
			t.Fatalf("class %d name = %q, want %q", i, rd.ClassName(i), c.Name)
		}
		var want []string
		for _, m := range c.Methods {
			want = append(want, m.Name)
			want = append(want, m.Calls...)
		}
		refs := rd.ClassRefs(i)
		if len(refs) != len(want) {
			t.Fatalf("class %d refs = %d, want %d", i, len(refs), len(want))
		}
		for j, idx := range refs {
			if string(rd.Strings[idx]) != want[j] {
				t.Fatalf("class %d ref %d = %q, want %q", i, j, rd.Strings[idx], want[j])
			}
		}
	}
}

func TestParseRawZeroCopy(t *testing.T) {
	enc := rawFixture().Encode()
	rd, err := ParseRaw(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range rd.Strings {
		if len(s) == 0 {
			continue
		}
		off := bytes.Index(enc, s)
		if off < 0 || &s[0] != &enc[bytesIndexOf(enc, s)] {
			t.Fatalf("string %d is not a subslice of the input", i)
		}
	}
}

// bytesIndexOf finds the offset of sub's backing bytes inside buf by
// pointer identity (sub must alias buf).
func bytesIndexOf(buf, sub []byte) int {
	for off := 0; off+len(sub) <= len(buf); off++ {
		if &buf[off] == &sub[0] {
			return off
		}
	}
	return -1
}

func TestParseRawRejectsWhatDecodeRejects(t *testing.T) {
	enc := rawFixture().Encode()
	for _, data := range [][]byte{
		[]byte("junk"),
		enc[:len(Magic)+2],
		enc[:len(enc)-3],
	} {
		_, decErr := Decode(data)
		_, rawErr := ParseRaw(data)
		if (decErr == nil) != (rawErr == nil) {
			t.Fatalf("Decode err=%v, ParseRaw err=%v: must agree", decErr, rawErr)
		}
	}
}

func TestSmaliPathExported(t *testing.T) {
	if got := SmaliPath("Lcom/a/Main;"); got != "smali/com/a/Main.smali" {
		t.Fatalf("SmaliPath = %q", got)
	}
	if got := SmaliPath(""); got != "smali/Unknown.smali" {
		t.Fatalf("SmaliPath empty = %q", got)
	}
}

func TestWalkNativeLibStrings(t *testing.T) {
	lib := NativeLib{
		SoName:  "libtensorflowlite.so",
		Symbols: []string{"TfLiteInterpreterCreate", "JNI_OnLoad"},
	}
	enc := EncodeNativeLib(lib)
	var got []string
	if err := WalkNativeLibStrings(enc, func(s []byte) bool {
		got = append(got, string(s))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := append([]string{lib.SoName}, lib.Symbols...)
	if len(got) != len(want) {
		t.Fatalf("walked %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walked %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	if err := WalkNativeLibStrings(enc, func(s []byte) bool { n++; return false }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("early stop visited %d strings", n)
	}
	// Truncated input fails like DecodeNativeLib.
	if err := WalkNativeLibStrings(enc[:len(enc)-2], func(s []byte) bool { return true }); err == nil {
		t.Fatal("truncated lib should fail")
	}
	if err := WalkNativeLibStrings([]byte{0x7f, 'E', 'L', 'F'}, func(s []byte) bool { return true }); err == nil {
		t.Fatal("short ELF ident should fail")
	}
}

// A header count is read before any entry, so a few bytes can claim
// millions of strings or classes. Neither decoder may size a table from
// such a count: each must fail with allocation bounded by the input.
func TestHeaderCountsCannotForceLargeAllocations(t *testing.T) {
	header := func(counts ...uint32) []byte {
		b := append([]byte(nil), Magic...)
		for _, c := range counts {
			b = binary.LittleEndian.AppendUint32(b, c)
		}
		return b
	}
	inputs := []struct {
		name string
		data []byte
	}{
		{"strings", header(1 << 22)},
		{"classes", header(0, 1<<20)},
	}
	parsers := []struct {
		name  string
		parse func([]byte) error
	}{
		{"Decode", func(b []byte) error { _, err := Decode(b); return err }},
		{"ParseRaw", func(b []byte) error { _, err := ParseRaw(b); return err }},
	}
	for _, in := range inputs {
		for _, p := range parsers {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := p.parse(in.data)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s(%d-byte %s header) succeeded", p.name, len(in.data), in.name)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Errorf("%s(%d-byte %s header) allocated %d bytes", p.name, len(in.data), in.name, alloc)
			}
		}
	}
}

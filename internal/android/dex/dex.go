// Package dex implements the Dalvik-executable container gaugeNN inspects
// for cloud ML API calls: "Android apps are typically developed in Kotlin
// or Java and then compiled into dex format and packaged within the app
// binary. It is possible to extract this dex binary from the app package
// and decompile it into a human-readable (smali) format" (Section 3.2).
//
// The binary layout follows the real format's spirit — a versioned magic,
// a deduplicated string table, then class definitions whose method bodies
// reference string-table entries for every invoked method — which is all
// the API-usage analysis needs. The pipeline indexes it with ParseRaw;
// Decode and Baksmali, which renders the same information as smali text,
// are the test references that the zero-copy scanner is checked against.
package dex

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// Magic is the dex file magic including the version: "dex\n035\0".
var Magic = []byte{'d', 'e', 'x', '\n', '0', '3', '5', 0}

// Method is a single method and the fully qualified methods it invokes
// (JVM descriptor style, e.g.
// "Lcom/google/firebase/ml/vision/FirebaseVision;->getInstance()").
type Method struct {
	Name  string
	Calls []string
}

// Class is a class definition with its smali-style binary name, e.g.
// "Lcom/example/app/MainActivity;".
type Class struct {
	Name    string
	Methods []Method
}

// Dex is a parsed classes.dex.
type Dex struct {
	Classes []Class
}

// AllCalls returns every invoked method reference across all classes,
// deduplicated and sorted.
func (d *Dex) AllCalls() []string {
	set := map[string]bool{}
	for _, c := range d.Classes {
		for _, m := range c.Methods {
			for _, call := range m.Calls {
				set[call] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Encode serialises the dex: magic, string table, class table.
func (d *Dex) Encode() []byte {
	// Build the deduplicated string table.
	index := map[string]uint32{}
	var table []string
	intern := func(s string) uint32 {
		if i, ok := index[s]; ok {
			return i
		}
		i := uint32(len(table))
		index[s] = i
		table = append(table, s)
		return i
	}
	type encMethod struct {
		name  uint32
		calls []uint32
	}
	type encClass struct {
		name    uint32
		methods []encMethod
	}
	classes := make([]encClass, 0, len(d.Classes))
	for _, c := range d.Classes {
		ec := encClass{name: intern(c.Name)}
		for _, m := range c.Methods {
			em := encMethod{name: intern(m.Name)}
			for _, call := range m.Calls {
				em.calls = append(em.calls, intern(call))
			}
			ec.methods = append(ec.methods, em)
		}
		classes = append(classes, ec)
	}

	buf := append([]byte(nil), Magic...)
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	str := func(s string) { u32(uint32(len(s))); buf = append(buf, s...) }
	u32(uint32(len(table)))
	for _, s := range table {
		str(s)
	}
	u32(uint32(len(classes)))
	for _, c := range classes {
		u32(c.name)
		u32(uint32(len(c.methods)))
		for _, m := range c.methods {
			u32(m.name)
			u32(uint32(len(m.calls)))
			for _, call := range m.calls {
				u32(call)
			}
		}
	}
	return buf
}

// IsDex reports whether data begins with the dex magic.
func IsDex(data []byte) bool {
	return len(data) >= len(Magic) && string(data[:len(Magic)]) == string(Magic)
}

// Decode parses an encoded dex into its classes. It is a test reference:
// tests check ParseRaw and extraction's zero-copy scanner against it, and
// no binary calls it.
func Decode(data []byte) (*Dex, error) {
	if !IsDex(data) {
		return nil, fmt.Errorf("dex: bad magic")
	}
	off := len(Magic)
	u32 := func() (uint32, error) {
		if off+4 > len(data) {
			return 0, fmt.Errorf("dex: truncated at offset %d", off)
		}
		v := binary.LittleEndian.Uint32(data[off:])
		off += 4
		return v, nil
	}
	rstr := func() (string, error) {
		n, err := u32()
		if err != nil {
			return "", err
		}
		if off+int(n) > len(data) {
			return "", fmt.Errorf("dex: truncated string at offset %d", off)
		}
		s := string(data[off : off+int(n)])
		off += int(n)
		return s, nil
	}
	nstr, err := u32()
	if err != nil {
		return nil, err
	}
	if nstr > 1<<22 {
		return nil, fmt.Errorf("dex: implausible string count %d", nstr)
	}
	if err := checkCount("strings", nstr, minStringBytes, len(data)-off); err != nil {
		return nil, err
	}
	table := make([]string, nstr)
	for i := range table {
		if table[i], err = rstr(); err != nil {
			return nil, err
		}
	}
	lookup := func(i uint32) (string, error) {
		if int(i) >= len(table) {
			return "", fmt.Errorf("dex: string index %d out of range", i)
		}
		return table[i], nil
	}
	nclasses, err := u32()
	if err != nil {
		return nil, err
	}
	if nclasses > 1<<20 {
		return nil, fmt.Errorf("dex: implausible class count %d", nclasses)
	}
	if err := checkCount("classes", nclasses, minClassBytes, len(data)-off); err != nil {
		return nil, err
	}
	d := &Dex{Classes: make([]Class, 0, nclasses)}
	for i := uint32(0); i < nclasses; i++ {
		var c Class
		ni, err := u32()
		if err != nil {
			return nil, err
		}
		if c.Name, err = lookup(ni); err != nil {
			return nil, err
		}
		nm, err := u32()
		if err != nil {
			return nil, err
		}
		if nm > 1<<16 {
			return nil, fmt.Errorf("dex: implausible method count %d", nm)
		}
		for j := uint32(0); j < nm; j++ {
			var m Method
			mi, err := u32()
			if err != nil {
				return nil, err
			}
			if m.Name, err = lookup(mi); err != nil {
				return nil, err
			}
			nc, err := u32()
			if err != nil {
				return nil, err
			}
			if nc > 1<<16 {
				return nil, fmt.Errorf("dex: implausible call count %d", nc)
			}
			for k := uint32(0); k < nc; k++ {
				ci, err := u32()
				if err != nil {
					return nil, err
				}
				call, err := lookup(ci)
				if err != nil {
					return nil, err
				}
				m.Calls = append(m.Calls, call)
			}
			c.Methods = append(c.Methods, m)
		}
		d.Classes = append(d.Classes, c)
	}
	return d, nil
}

// Baksmali decompiles the dex into smali source files, one per class,
// keyed by the apktool-style relative path ("smali/com/example/Main.smali").
// The invoke lines carry the full method references that
// cloudml.DetectSmali string-matches on. It is a test reference for
// extraction's zero-copy scanner; no binary calls it.
func Baksmali(d *Dex) map[string]string {
	out := make(map[string]string, len(d.Classes))
	for _, c := range d.Classes {
		var b strings.Builder
		fmt.Fprintf(&b, ".class public %s\n.super Ljava/lang/Object;\n\n", c.Name)
		for _, m := range c.Methods {
			fmt.Fprintf(&b, ".method public %s()V\n    .registers 4\n", m.Name)
			for _, call := range m.Calls {
				fmt.Fprintf(&b, "    invoke-virtual {v0}, %s\n", call)
			}
			b.WriteString("    return-void\n.end method\n\n")
		}
		out[smaliPath(c.Name)] = b.String()
	}
	return out
}

// smaliPath converts "Lcom/example/Main;" to "smali/com/example/Main.smali".
func smaliPath(className string) string { return SmaliPath(className) }

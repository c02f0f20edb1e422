package dex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
)

// RawDex is a structural index over an encoded dex: the deduplicated
// string table as zero-copy subslices of the input buffer, plus per-class
// lists of string-table indices (class name, method names, invoked
// methods). It exists for the extraction hot path: marker scanning needs
// to visit each *distinct* string exactly once and attribute hits to
// classes, which Decode + Baksmali can only offer after materialising
// every string twice (once in the table, once in smali text). RawDex
// materialises nothing.
//
// The index aliases the input buffer; callers must not mutate data while
// the RawDex is in use.
type RawDex struct {
	// Strings holds the table entries as subslices of the input.
	Strings [][]byte

	classNames []uint32
	// refs is the flattened per-class reference list (method name and call
	// indices); refStart[i]..refStart[i+1] bounds class i's slice.
	refs     []uint32
	refStart []uint32
}

// ParseRaw indexes an encoded dex without materialising strings. It
// applies the same structural validation as Decode, so a payload Decode
// rejects is rejected here too.
func ParseRaw(data []byte) (*RawDex, error) {
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
	d := &RawDex{Strings: make([][]byte, nstr)}
	for i := range d.Strings {
		n, err := u32()
		if err != nil {
			return nil, err
		}
		if off+int(n) > len(data) {
			return nil, fmt.Errorf("dex: truncated string at offset %d", off)
		}
		d.Strings[i] = data[off : off+int(n) : off+int(n)]
		off += int(n)
	}
	checkIdx := func(i uint32) error {
		if int(i) >= len(d.Strings) {
			return fmt.Errorf("dex: string index %d out of range", i)
		}
		return nil
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
	d.classNames = make([]uint32, 0, nclasses)
	d.refStart = make([]uint32, 1, nclasses+1)
	for i := uint32(0); i < nclasses; i++ {
		ni, err := u32()
		if err != nil {
			return nil, err
		}
		if err := checkIdx(ni); err != nil {
			return nil, err
		}
		d.classNames = append(d.classNames, ni)
		nm, err := u32()
		if err != nil {
			return nil, err
		}
		if nm > 1<<16 {
			return nil, fmt.Errorf("dex: implausible method count %d", nm)
		}
		for j := uint32(0); j < nm; j++ {
			mi, err := u32()
			if err != nil {
				return nil, err
			}
			if err := checkIdx(mi); err != nil {
				return nil, err
			}
			d.refs = append(d.refs, mi)
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
				if err := checkIdx(ci); err != nil {
					return nil, err
				}
				d.refs = append(d.refs, ci)
			}
		}
		d.refStart = append(d.refStart, uint32(len(d.refs)))
	}
	return d, nil
}

// Smallest encodings: a string is its 4-byte length then its bytes; a
// class is a 4-byte name index and a 4-byte method count then its methods.
const (
	minStringBytes = 4
	minClassBytes  = 8
)

// checkCount rejects a header count whose entries cannot fit in the rest
// bytes left unread, before that count sizes an allocation: otherwise a
// 12-byte input could claim 1<<22 strings and have their table allocated.
func checkCount(what string, n uint32, minBytes, rest int) error {
	if uint64(n)*uint64(minBytes) > uint64(rest) {
		return fmt.Errorf("dex: truncated: %d %s cannot fit in %d bytes", n, what, rest)
	}
	return nil
}

// NumClasses returns the class count.
func (d *RawDex) NumClasses() int { return len(d.classNames) }

// ClassNameIndex returns the string-table index of class i's name.
func (d *RawDex) ClassNameIndex(i int) uint32 { return d.classNames[i] }

// ClassName returns class i's name bytes (zero-copy).
func (d *RawDex) ClassName(i int) []byte { return d.Strings[d.classNames[i]] }

// ClassRefs returns the string-table indices class i references (method
// names and invoked methods), in declaration order. The slice aliases the
// index; callers must not mutate it.
func (d *RawDex) ClassRefs(i int) []uint32 { return d.refs[d.refStart[i]:d.refStart[i+1]] }

// SmaliPath converts a smali-style binary class name ("Lcom/example/Main;")
// to its apktool-style decompiled path ("smali/com/example/Main.smali").
func SmaliPath(className string) string {
	name := strings.TrimSuffix(strings.TrimPrefix(className, "L"), ";")
	if name == "" {
		name = "Unknown"
	}
	return "smali/" + name + ".smali"
}

// WalkNativeLibStrings visits the scannable strings of an encoded shared
// object — the soname followed by every dynamic symbol — as zero-copy
// subslices of data, without building a NativeLib. fn returning false
// stops the walk early.
func WalkNativeLibStrings(data []byte, fn func(s []byte) bool) error {
	// Same gate as DecodeNativeLib: the full ELF identification, not just
	// the 4-byte IsNativeLib sniff, so both paths skip the same payloads.
	if !bytes.HasPrefix(data, elfMagic) {
		return fmt.Errorf("dex: not a native library")
	}
	off := len(elfMagic)
	next := func(what string) ([]byte, error) {
		if off+4 > len(data) {
			return nil, fmt.Errorf("dex: truncated native lib %s at %d", what, off)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if n < 0 || off+n > len(data) {
			return nil, fmt.Errorf("dex: truncated native lib %s at %d", what, off)
		}
		s := data[off : off+n : off+n]
		off += n
		return s, nil
	}
	soname, err := next("soname")
	if err != nil {
		return err
	}
	if !fn(soname) {
		return nil
	}
	if off+4 > len(data) {
		return fmt.Errorf("dex: truncated native lib at %d", off)
	}
	nsyms := binary.LittleEndian.Uint32(data[off:])
	off += 4
	if nsyms > 1<<20 {
		return fmt.Errorf("dex: implausible symbol count %d", nsyms)
	}
	for i := uint32(0); i < nsyms; i++ {
		sym, err := next("symbol")
		if err != nil {
			return err
		}
		if !fn(sym) {
			return nil
		}
	}
	return nil
}

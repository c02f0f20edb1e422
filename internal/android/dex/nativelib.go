package dex

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// NativeLib is a shared object shipped under lib/<abi>/ in an APK. gaugeNN
// detects ML frameworks in native code "by means of library inclusion in
// the application code and native libraries ... following the methodology
// of Xu et al." — scanning the dynamic symbol strings for framework
// markers.
type NativeLib struct {
	// SoName is the DT_SONAME, e.g. "libtensorflowlite.so".
	SoName string
	// Symbols are the exported dynamic symbols.
	Symbols []string
}

var elfMagic = []byte{0x7f, 'E', 'L', 'F', 2, 1, 1, 0} // 64-bit LE, SysV

// EncodeNativeLib produces an ELF-like shared object: the ELF identity
// bytes, a soname record and a dynamic string table holding the symbol
// names — the sections a symbol scanner actually reads.
func EncodeNativeLib(l NativeLib) []byte {
	buf := append([]byte(nil), elfMagic...)
	u32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	str := func(s string) { u32(uint32(len(s))); buf = append(buf, s...) }
	str(l.SoName)
	u32(uint32(len(l.Symbols)))
	for _, s := range l.Symbols {
		str(s)
	}
	return buf
}

// IsNativeLib reports whether data starts with the ELF identification.
func IsNativeLib(data []byte) bool { return bytes.HasPrefix(data, elfMagic[:4]) }

// DecodeNativeLib parses an encoded shared object. It is a test
// reference: tests check extraction's zero-copy scanner against it, and no
// binary calls it.
func DecodeNativeLib(data []byte) (NativeLib, error) {
	var l NativeLib
	if !bytes.HasPrefix(data, elfMagic) {
		return l, fmt.Errorf("dex: not a native library")
	}
	off := len(elfMagic)
	u32 := func() (uint32, error) {
		if off+4 > len(data) {
			return 0, fmt.Errorf("dex: truncated native lib at %d", off)
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
			return "", fmt.Errorf("dex: truncated native lib string at %d", off)
		}
		s := string(data[off : off+int(n)])
		off += int(n)
		return s, nil
	}
	var err error
	if l.SoName, err = rstr(); err != nil {
		return l, err
	}
	n, err := u32()
	if err != nil {
		return l, err
	}
	if n > 1<<20 {
		return l, fmt.Errorf("dex: implausible symbol count %d", n)
	}
	for i := uint32(0); i < n; i++ {
		s, err := rstr()
		if err != nil {
			return l, err
		}
		l.Symbols = append(l.Symbols, s)
	}
	return l, nil
}

// ContainsSymbol reports whether any dynamic symbol contains the marker
// substring (case-sensitive, as symbol scans are).
func (l NativeLib) ContainsSymbol(marker string) bool {
	for _, s := range l.Symbols {
		if bytes.Contains([]byte(s), []byte(marker)) {
			return true
		}
	}
	return false
}

// Package apk implements the base APK gaugeNN extracts models from: a zip
// with manifest, dex bytecode, native libraries and assets. Section 3.1
// also names OBB expansion files and App Bundle asset packs; the crawler
// checks each app's delivery manifest for them and, as in the paper, finds
// none, so no codec for them lives here. The 100 MB base APK limit that
// pushes large models into those companion files is enforced here.
package apk

import (
	"archive/zip"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"path"
	"sort"
	"strings"
)

// MaxBaseAPKSize is Google Play's 100 MB cap on the main apk, the reason
// "files – such as DNN weights – can have a larger storage footprint" must
// move to expansion files or asset packs.
const MaxBaseAPKSize = 100 * 1024 * 1024

// ManifestName is the manifest entry every APK must carry.
const ManifestName = "AndroidManifest.xml"

// Manifest carries the app identity metadata the store and the analysis
// pipeline read.
type Manifest struct {
	Package     string
	VersionCode int
	MinSDK      int
	Permissions []string
}

// Encode renders the manifest in the simple key: value form our reader
// parses (a stand-in for Android's binary XML).
func (m Manifest) Encode() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "package: %s\n", m.Package)
	fmt.Fprintf(&b, "versionCode: %d\n", m.VersionCode)
	fmt.Fprintf(&b, "minSdkVersion: %d\n", m.MinSDK)
	for _, p := range m.Permissions {
		fmt.Fprintf(&b, "uses-permission: %s\n", p)
	}
	return []byte(b.String())
}

// ParseManifest reverses Manifest.Encode.
func ParseManifest(data []byte) (Manifest, error) {
	var m Manifest
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, ": ")
		if !ok {
			return m, fmt.Errorf("apk: malformed manifest line %q", line)
		}
		switch key {
		case "package":
			m.Package = val
		case "versionCode":
			if _, err := fmt.Sscanf(val, "%d", &m.VersionCode); err != nil {
				return m, fmt.Errorf("apk: bad versionCode %q", val)
			}
		case "minSdkVersion":
			if _, err := fmt.Sscanf(val, "%d", &m.MinSDK); err != nil {
				return m, fmt.Errorf("apk: bad minSdkVersion %q", val)
			}
		case "uses-permission":
			m.Permissions = append(m.Permissions, val)
		}
	}
	if m.Package == "" {
		return m, fmt.Errorf("apk: manifest missing package")
	}
	return m, nil
}

// Builder assembles an APK. Entries whose names suggest already-compressed
// or random payloads (model weights, native libs) are stored uncompressed,
// as build tools do.
type Builder struct {
	manifest Manifest
	entries  map[string][]byte
}

// NewBuilder starts an APK for the given manifest.
func NewBuilder(m Manifest) *Builder {
	return &Builder{manifest: m, entries: map[string][]byte{}}
}

// SetDex installs classes.dex.
func (b *Builder) SetDex(data []byte) *Builder {
	b.entries["classes.dex"] = data
	return b
}

// AddAsset places a file under assets/.
func (b *Builder) AddAsset(relPath string, data []byte) *Builder {
	b.entries[path.Join("assets", relPath)] = data
	return b
}

// AddNativeLib places a shared object under lib/<abi>/.
func (b *Builder) AddNativeLib(abi, soName string, data []byte) *Builder {
	b.entries[path.Join("lib", abi, soName)] = data
	return b
}

// AddRaw places an arbitrary entry (res/, META-INF/, ...).
func (b *Builder) AddRaw(name string, data []byte) *Builder {
	b.entries[name] = data
	return b
}

// Build produces the zip bytes, enforcing the 100 MB base-APK limit.
func (b *Builder) Build() ([]byte, error) {
	var buf bytes.Buffer
	// Pre-size the buffer: payloads plus local+central headers (~100 bytes
	// and two name copies per entry). Model weights dominate APK size, so
	// this avoids the repeated doubling copies of a cold bytes.Buffer.
	est := 128
	for n, data := range b.entries {
		est += len(data) + 2*len(n) + 128
	}
	buf.Grow(est)
	zw := zip.NewWriter(&buf)
	names := make([]string, 0, len(b.entries)+1)
	for n := range b.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	write := func(name string, data []byte) error {
		hdr := &zip.FileHeader{Name: name, Method: zip.Deflate}
		if storeUncompressed(name) {
			hdr.Method = zip.Store
		}
		w, err := zw.CreateHeader(hdr)
		if err != nil {
			return err
		}
		_, err = w.Write(data)
		return err
	}
	if err := write(ManifestName, b.manifest.Encode()); err != nil {
		return nil, fmt.Errorf("apk: %w", err)
	}
	for _, n := range names {
		if err := write(n, b.entries[n]); err != nil {
			return nil, fmt.Errorf("apk: %w", err)
		}
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("apk: %w", err)
	}
	if buf.Len() > MaxBaseAPKSize {
		return nil, fmt.Errorf("apk: base apk is %d bytes, exceeds the %d Play Store limit; ship assets via OBB or asset packs", buf.Len(), MaxBaseAPKSize)
	}
	return buf.Bytes(), nil
}

// storeUncompressed mirrors aapt's default no-compress list for weights
// and shared objects.
func storeUncompressed(name string) bool {
	switch {
	case strings.HasPrefix(name, "lib/"):
		return true
	case strings.HasPrefix(name, "assets/"):
		ext := strings.ToLower(path.Ext(name))
		switch ext {
		case ".tflite", ".lite", ".tfl", ".bin", ".caffemodel", ".dlc",
			".pb", ".onnx", ".mp3", ".png", ".jpg":
			return true
		}
	}
	return false
}

// Reader provides random access to an APK's entries.
//
// Reads of stored (uncompressed) entries are zero-copy: they return
// subslices of the buffer passed to Open. See Entry.Data for the aliasing
// contract.
type Reader struct {
	data        []byte
	zr          *zip.Reader
	manifest    Manifest
	manifestRaw []byte
	entries     []Entry
}

// Open parses APK bytes and its manifest. The Reader aliases data: the
// caller must not mutate it while the Reader (or any stored-entry slice
// obtained from it) is in use.
func Open(data []byte) (*Reader, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("apk: not a zip: %w", err)
	}
	r := &Reader{data: data, zr: zr}
	r.entries = make([]Entry, len(zr.File))
	for i, f := range zr.File {
		e := Entry{r: r, f: f, dataOff: -1}
		// Stored, unencrypted entries with honest sizes are served as
		// direct subslices of the APK buffer. Everything else (deflate,
		// odd flags) goes through the copying decompression path.
		// The size bound must precede the int64 sum: a hostile zip64 size
		// >= 2^63 would overflow the sum negative and slip past the check.
		if f.Method == zip.Store && f.Flags&0x1 == 0 &&
			f.CompressedSize64 == f.UncompressedSize64 &&
			f.UncompressedSize64 <= uint64(len(data)) {
			if off, err := f.DataOffset(); err == nil &&
				off >= 0 && off+int64(f.UncompressedSize64) <= int64(len(data)) {
				e.dataOff = off
			}
		}
		r.entries[i] = e
	}
	r.manifestRaw, err = r.ReadFile(ManifestName)
	if err != nil {
		return nil, fmt.Errorf("apk: missing manifest: %w", err)
	}
	if r.manifest, err = ParseManifest(r.manifestRaw); err != nil {
		return nil, err
	}
	return r, nil
}

// Manifest returns the parsed manifest.
func (r *Reader) Manifest() Manifest { return r.manifest }

// RawManifest returns the manifest bytes Open parsed, the first entry
// named ManifestName, so that nothing needs to read that entry again. The
// slice may alias the APK buffer and must be treated as read-only.
func (r *Reader) RawManifest() []byte { return r.manifestRaw }

// Names lists every entry in archive order.
func (r *Reader) Names() []string {
	out := make([]string, 0, len(r.zr.File))
	for _, f := range r.zr.File {
		out = append(out, f.Name)
	}
	return out
}

// Entry is one archive member, readable lazily: extraction walks entry
// names and only materialises the payloads it actually needs (dex, native
// libs, model candidates), instead of inflating every resource and icon in
// the package.
type Entry struct {
	r *Reader
	f *zip.File
	// dataOff is the entry payload's offset in the APK buffer when the
	// entry is stored uncompressed (-1 otherwise).
	dataOff int64
}

// Name returns the entry's path inside the archive.
func (e *Entry) Name() string { return e.f.Name }

// Size returns the entry's uncompressed size.
func (e *Entry) Size() int { return int(e.f.UncompressedSize64) }

// Data returns the entry payload. For stored (uncompressed) entries this
// is zero-copy: the returned slice aliases the APK buffer, must be treated
// as read-only, and keeps the whole buffer reachable while retained; the
// payload's CRC32 is verified on every call (stateless, so Data stays safe
// for concurrent use), matching the integrity check the decompressing path
// performs at EOF. Compressed entries are inflated into a fresh,
// exactly-sized buffer.
func (e *Entry) Data() ([]byte, error) {
	if e.dataOff >= 0 {
		end := e.dataOff + int64(e.f.UncompressedSize64)
		data := e.r.data[e.dataOff:end:end]
		// Same rule as archive/zip's checksumReader: a zero CRC in the
		// directory means "not recorded" and skips the check.
		if e.f.CRC32 != 0 && crc32.ChecksumIEEE(data) != e.f.CRC32 {
			return nil, fmt.Errorf("apk: entry %s: checksum mismatch", e.f.Name)
		}
		return data, nil
	}
	rc, err := e.f.Open()
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	// Pre-size from the directory's declared size, but never trust it
	// beyond the store's base-APK ceiling: a corrupt or hostile header
	// must not be able to force an arbitrary allocation.
	if e.f.UncompressedSize64 > MaxBaseAPKSize {
		return io.ReadAll(rc)
	}
	out := make([]byte, e.f.UncompressedSize64)
	if _, err := io.ReadFull(rc, out); err != nil {
		return nil, fmt.Errorf("apk: reading %s: %w", e.f.Name, err)
	}
	// Drain to EOF so the zip reader verifies the CRC, and to catch
	// entries whose payload exceeds the declared size.
	var tail [1]byte
	for {
		n, err := rc.Read(tail[:])
		if n > 0 {
			return nil, fmt.Errorf("apk: entry %s larger than declared size", e.f.Name)
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("apk: reading %s: %w", e.f.Name, err)
		}
	}
}

// Stored reports whether reads of this entry are zero-copy.
func (e *Entry) Stored() bool { return e.dataOff >= 0 }

// Entries returns the archive members in archive order, without reading
// any payload. The returned slice is shared; callers must not mutate it.
func (r *Reader) Entries() []Entry { return r.entries }

// ReadFile returns the contents of a named entry. For stored
// (uncompressed) entries the returned slice aliases the APK buffer —
// callers must treat it as read-only; retaining it retains the whole
// buffer (copy first if the APK outlives the use).
func (r *Reader) ReadFile(name string) ([]byte, error) {
	for i := range r.entries {
		if r.entries[i].f.Name == name {
			return r.entries[i].Data()
		}
	}
	return nil, fmt.Errorf("apk: entry %q not found", name)
}

// Dex returns classes.dex bytes, or an error if the app has none.
func (r *Reader) Dex() ([]byte, error) { return r.ReadFile("classes.dex") }

// Assets returns the entry names under assets/.
func (r *Reader) Assets() []string {
	var out []string
	for _, f := range r.zr.File {
		if strings.HasPrefix(f.Name, "assets/") {
			out = append(out, f.Name)
		}
	}
	return out
}

// NativeLibs returns the entry names under lib/.
func (r *Reader) NativeLibs() []string {
	var out []string
	for _, f := range r.zr.File {
		if strings.HasPrefix(f.Name, "lib/") {
			out = append(out, f.Name)
		}
	}
	return out
}

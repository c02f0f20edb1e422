package extract

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"github.com/gaugenn/gaugenn/internal/android/apk"
	"github.com/gaugenn/gaugenn/internal/nn/formats"
)

// PayloadHash is an internal store key: an APK's report key (APK.Key) or
// a candidate file set's payload key (HashPayload), a sha256 digest cut to
// 16 bytes. Unlike a model's md5 checksum it identifies bytes, not models,
// and nothing outside the store reads it.
type PayloadHash [16]byte

// Domain tags keep the three keys apart: no entry walk, raw-bytes key or
// file set can hash to another's key.
const (
	domainEntries = "gaugenn/apk-entries\x00"
	domainRaw     = "gaugenn/apk-raw\x00"
	domainPayload = "gaugenn/payload\x00"
)

func truncate(sum [sha256.Size]byte) PayloadHash {
	var out PayloadHash
	copy(out[:], sum[:])
	return out
}

// rawKey keys bytes that do not open as an APK, or hold an entry that
// does not read, by the bytes themselves.
func rawKey(b []byte) PayloadHash {
	h := sha256.New()
	h.Write(appendLen([]byte(domainRaw), len(b)))
	h.Write(b)
	return truncate([sha256.Size]byte(h.Sum(nil)))
}

func appendLen(b []byte, n int) []byte { return binary.LittleEndian.AppendUint64(b, uint64(n)) }

// entryKinds is the one rule for which entries extraction reads besides
// the manifest: dex files and native libraries, which it scans for code
// markers (a name can be both, and the bytes decide), and the candidates,
// the other files whose extension passes the Table 5 pre-screen. The
// report key reads exactly these, so hashing an APK inflates nothing
// extraction would not.
func entryKinds(name string) (isDex, isLib, isCandidate bool) {
	isDex, isLib = strings.HasSuffix(name, ".dex"), strings.HasPrefix(name, "lib/")
	return isDex, isLib, !isDex && !isLib && formats.CandidateExtension(name)
}

// APK is an app package opened once for keying and extraction. Its zip is
// parsed once, every entry extraction reads is read once, and each is
// hashed at most once, whether for the report key, a payload key or both.
// An APK is not safe for concurrent use.
type APK struct {
	raw     []byte
	r       *apk.Reader // nil when the bytes do not open
	err     error       // why they do not
	entries []entry     // archive order
}

// OpenAPK parses apkBytes' zip directory and manifest. It reads no other
// entry: Key and Extract read what each needs, and share what both read.
// The APK aliases apkBytes, which must not change while it is in use.
func OpenAPK(apkBytes []byte) *APK {
	a := &APK{raw: apkBytes}
	r, err := apk.Open(apkBytes)
	if err != nil {
		a.err = fmt.Errorf("extract: %w", err)
		return a
	}
	a.r = r
	aes := r.Entries()
	a.entries = make([]entry, len(aes))
	for i := range aes {
		a.entries[i] = entry{name: aes[i].Name(), lazy: &aes[i]}
	}
	return a
}

// Key is the APK's report key, the store key of its extraction report:
// sha256 over the manifest Open parsed, every entry name in archive order,
// and the size and sha256 digest of each entry extraction reads. Those are
// all extraction looks at, so equal keys imply equal reports. Bytes that
// do not open, or hold an entry that does not read, key over the raw bytes
// under their own domain tag instead.
func (a *APK) Key() PayloadHash {
	if a.r == nil {
		return rawKey(a.raw)
	}
	m := a.r.RawManifest()
	msum := sha256.Sum256(m)
	b := make([]byte, 0, 128+64*len(a.entries))
	b = append(b, domainEntries...)
	b = appendLen(b, len(m))
	b = append(b, msum[:]...)
	b = appendLen(b, len(a.entries))
	for i := range a.entries {
		e := &a.entries[i]
		b = appendLen(b, len(e.name))
		b = append(b, e.name...)
		if isDex, isLib, isCandidate := entryKinds(e.name); !isDex && !isLib && !isCandidate {
			b = append(b, 0)
			continue
		}
		sum, err := e.digest()
		if err != nil {
			return rawKey(a.raw)
		}
		b = append(b, 1)
		b = appendLen(b, len(e.data))
		b = append(b, sum[:]...)
	}
	return truncate(sha256.Sum256(b))
}

// Extract extracts everything from the APK, through cache's payload front
// door when cache is not nil (see ExtractAPKCached). Entries Key already
// read and hashed are neither read nor hashed again.
func (a *APK) Extract(ctx context.Context, cache DecodeCache) (*Report, error) {
	metAPKs.Inc()
	metAPKBytes.Add(uint64(len(a.raw)))
	if a.err != nil {
		return nil, a.err
	}
	entries := make([]*entry, len(a.entries))
	for i := range a.entries {
		entries[i] = &a.entries[i]
	}
	rep, err := extractEntries(ctx, entries, cache)
	if err != nil {
		return nil, fmt.Errorf("extract: %w", err)
	}
	rep.Package = a.r.Manifest().Package
	return rep, nil
}

// HashAPK is OpenAPK(apkBytes).Key(), the key a study persists the APK's
// report under.
func HashAPK(apkBytes []byte) PayloadHash { return OpenAPK(apkBytes).Key() }

// payloadFile is one member of a candidate file set as its payload key
// sees it.
type payloadFile struct {
	name string // base name, the file set's key
	size int
	sum  [sha256.Size]byte
}

// payloadKey is the one payload-key rule: sha256 over the format name,
// then each file's base name, size and sha256 digest, in name order.
// files must be sorted by name and hold each name once.
func payloadKey(format string, files []payloadFile) PayloadHash {
	var stack [512]byte // one key per candidate set: keep it off the heap
	b := append(stack[:0], domainPayload...)
	b = appendLen(b, len(format))
	b = append(b, format...)
	for i := range files {
		f := &files[i]
		b = appendLen(b, len(f.name))
		b = append(b, f.name...)
		b = appendLen(b, f.size)
		b = append(b, f.sum[:]...)
	}
	return truncate(sha256.Sum256(b))
}

func sortFiles(files []payloadFile) {
	slices.SortFunc(files, func(x, y payloadFile) int { return strings.Compare(x.name, y.name) })
}

// HashPayload computes the content identity of a candidate file set for a
// format, digesting each file's bytes itself: equal keys imply identical
// decode outcomes, because Decode is a pure function of the (name, bytes)
// set and the format. Extraction keys the sets it finds by the same rule
// from the digests its entries already carry.
func HashPayload(format string, set formats.FileSet) PayloadHash {
	files := make([]payloadFile, 0, len(set))
	for name, data := range set {
		files = append(files, payloadFile{name: name, size: len(data), sum: sha256.Sum256(data)})
	}
	sortFiles(files)
	return payloadKey(format, files)
}

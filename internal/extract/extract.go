// Package extract implements gaugeNN's model-retrieval step (Section 3.1):
// walking an app package's entries, pre-screening by the 69-format
// extension table, validating candidates by binary signature, decoding the
// survivors into the graph IR, and — independently of model payloads —
// detecting ML framework libraries, acceleration delegates and cloud API
// calls in the app's code (dex/smali and native symbols), following the
// methodology of Xu et al. for native code.
//
// The implementation is the pipeline's allocation hot path and is built
// zero-copy end to end: APK entries are walked lazily (only dex, native
// libs and model candidates are materialised, stored entries as subslices
// of the APK buffer), code markers are matched by a single Aho–Corasick
// pass over raw dex strings and native symbol tables (internal/scan), and
// candidate payloads are content-hashed *before* decoding so byte-identical
// models already decoded elsewhere (the other snapshot, another shard)
// skip graph decode entirely via the DecodeCache front door. Every entry
// read is hashed (sha256) at most once: the same digests key the APK's
// report and each of its candidate file sets (see key.go).
package extract

import (
	"context"
	"crypto/sha256"
	"path"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/gaugenn/gaugenn/internal/android/apk"
	"github.com/gaugenn/gaugenn/internal/android/dex"
	"github.com/gaugenn/gaugenn/internal/cloudml"
	"github.com/gaugenn/gaugenn/internal/nn/formats"
	"github.com/gaugenn/gaugenn/internal/nn/graph"
	"github.com/gaugenn/gaugenn/internal/scan"
)

// Model is one validated, decoded DNN found in a package.
type Model struct {
	// Path is the primary file's location inside the package.
	Path string
	// Framework names the format that validated the file(s).
	Framework string
	// Graph is the decoded IR. It is nil when extraction ran with a
	// DecodeCache: the decoded graph then lives behind the cache's payload
	// front door (keyed by Checksum), and duplicate payloads are never
	// decoded at all.
	Graph *graph.Graph
	// Checksum identifies the model across apps (md5 of graph + weights).
	Checksum graph.Checksum
	// FileBytes totals the on-disk footprint of all files in the set.
	FileBytes int
}

// Report is everything extraction learned about one app.
type Report struct {
	Package string
	// Models are the validated DNNs.
	Models []Model
	// CandidateFiles counts entries whose extension matched the Table 5
	// pre-screen.
	CandidateFiles int
	// FailedValidation lists candidate paths whose payload failed signature
	// or structural validation — encrypted/obfuscated models land here.
	FailedValidation []string
	// Frameworks lists ML framework libraries detected in code (dex calls
	// or native symbols), present even when no model validates.
	Frameworks []string
	// CloudAPIs are the detected cloud ML API usages.
	CloudAPIs []cloudml.Detection
	// Acceleration traces (Section 6.3) and out-of-store model delivery.
	UsesNNAPI, UsesXNNPACK, UsesSNPE bool
	LazyModelDownload                bool
	// OnDeviceTraining marks TFLiteTransferConverter-style fine-tuning
	// support, which the paper searched for and never found.
	OnDeviceTraining bool
}

// HasMLLibrary reports whether the app links any on-device ML framework.
func (r *Report) HasMLLibrary() bool { return len(r.Frameworks) > 0 }

// DecodeCache is the payload-hash front door extraction consults before
// decoding a candidate file-set. Payload must be single-flight per hash:
// the first caller's decode runs, concurrent and later callers of the same
// hash get the recorded outcome without decoding. ok reports whether the
// payload decodes to a valid model. A non-nil err is reserved for
// cancellation: a wait or decode cut short by ctx surfaces the context
// error and records nothing, so a cancelled run can never poison the
// cache with a phantom "failed validation". analysis.UniqueCache
// implements this.
type DecodeCache interface {
	Payload(ctx context.Context, h PayloadHash, decode func() (*graph.Graph, error)) (sum graph.Checksum, ok bool, err error)
}

// frameworkCodeMarkers are the substring signatures the library-inclusion
// detector scans dex strings and native symbols for. Together with the
// marker lists below they feed the shared Aho–Corasick automaton; the
// tables stay exported-in-spirit (plain data) so tests can cross-check the
// automaton against a strings.Contains reference.
var frameworkCodeMarkers = map[string][]string{
	"tflite": {"Lorg/tensorflow/lite/", "libtensorflowlite", "TfLite"},
	"caffe":  {"Lcom/caffe/", "libcaffe", "caffe_net"},
	"ncnn":   {"Lcom/tencent/ncnn/", "libncnn", "ncnn_net"},
	"tf":     {"Lorg/tensorflow/contrib/android/", "libtensorflow_inference", "TF_NewSession"},
	"snpe":   {"Lcom/qualcomm/qti/snpe/", "libSNPE", "Snpe_"},
}

var (
	nnapiMarkers   = []string{"NnApiDelegate", "android/hardware/neuralnetworks", "ANeuralNetworks"}
	xnnpackMarkers = []string{"setUseXNNPACK", "xnnpack"}
	lazyMarkers    = []string{"ModelDownloader;->fetchModel", "FirebaseModelDownloader"}
	// trainingMarkers detect on-device fine-tuning support — "we checked
	// for traces of online fine-tuning done on device (e.g. through
	// TFLiteTransferConverter) and found none" (Section 4.5).
	trainingMarkers = []string{"TFLiteTransferConverter", "Lorg/tensorflow/lite/transfer/", "train_head"}
	// snpeUsageMarkers set the UsesSNPE acceleration flag (a subset of the
	// snpe framework markers, as in the paper's Section 6.3 scan).
	snpeUsageMarkers = []string{"Lcom/qualcomm/qti/snpe/", "libSNPE"}
)

// markerKind classifies what a pattern hit means.
type markerKind uint8

const (
	mkFramework markerKind = iota
	mkNNAPI
	mkXNNPACK
	mkLazy
	mkTraining
	mkSNPE
	mkCloud
)

type markerAction struct {
	kind  markerKind
	fw    string // mkFramework
	cloud int32  // mkCloud: index into markerTable.apis
}

// markerTable is the compiled marker automaton: one Aho–Corasick scanner
// over every framework, acceleration, training, lazy-download and cloud
// API pattern, with a parallel action table. Built once, shared by all
// extractions.
type markerTable struct {
	sc   *scan.Scanner
	acts []markerAction
	apis []cloudml.API
}

var (
	markerOnce sync.Once
	markerTab  *markerTable
)

func markers() *markerTable {
	markerOnce.Do(func() {
		t := &markerTable{}
		var pats []string
		add := func(p string, a markerAction) {
			pats = append(pats, p)
			t.acts = append(t.acts, a)
		}
		fws := make([]string, 0, len(frameworkCodeMarkers))
		for fw := range frameworkCodeMarkers {
			fws = append(fws, fw)
		}
		sort.Strings(fws)
		for _, fw := range fws {
			for _, m := range frameworkCodeMarkers[fw] {
				add(m, markerAction{kind: mkFramework, fw: fw})
			}
		}
		for _, m := range nnapiMarkers {
			add(m, markerAction{kind: mkNNAPI})
		}
		for _, m := range xnnpackMarkers {
			add(m, markerAction{kind: mkXNNPACK})
		}
		for _, m := range lazyMarkers {
			add(m, markerAction{kind: mkLazy})
		}
		for _, m := range trainingMarkers {
			add(m, markerAction{kind: mkTraining})
		}
		for _, m := range snpeUsageMarkers {
			add(m, markerAction{kind: mkSNPE})
		}
		t.apis = cloudml.Known()
		if len(t.apis) > 64 {
			panic("extract: cloud API table exceeds the 64-bit attribution mask")
		}
		for i, api := range t.apis {
			for _, sig := range api.CallSites {
				add(sig, markerAction{kind: mkCloud, cloud: int32(i)})
			}
		}
		t.sc = scan.NewScanner(pats)
		markerTab = t
	})
	return markerTab
}

// applyMarkerAction folds one non-cloud marker hit into the report.
func (r *Report) applyMarkerAction(a markerAction) {
	switch a.kind {
	case mkFramework:
		r.addFramework(a.fw)
	case mkNNAPI:
		r.UsesNNAPI = true
	case mkXNNPACK:
		r.UsesXNNPACK = true
	case mkLazy:
		r.LazyModelDownload = true
	case mkTraining:
		r.OnDeviceTraining = true
	case mkSNPE:
		r.UsesSNPE = true
	}
}

// cloudAccum deduplicates cloud API detections per (API, smali file),
// matching cloudml.DetectSmali's output exactly.
type cloudAccum struct {
	apis []cloudml.API
	seen map[string]bool
	dets []cloudml.Detection
}

func (c *cloudAccum) add(apiIdx int32, file string) {
	api := c.apis[apiIdx]
	key := api.Name + "\x00" + file
	if c.seen == nil {
		c.seen = map[string]bool{}
	}
	if c.seen[key] {
		return
	}
	c.seen[key] = true
	c.dets = append(c.dets, cloudml.Detection{Provider: api.Provider, API: api.Name, File: file})
}

func (c *cloudAccum) detections() []cloudml.Detection {
	sort.Slice(c.dets, func(i, j int) bool {
		if c.dets[i].API != c.dets[j].API {
			return c.dets[i].API < c.dets[j].API
		}
		return c.dets[i].File < c.dets[j].File
	})
	return c.dets
}

// scanDex runs the marker automaton over a dex's deduplicated string table
// — each distinct string exactly once, as zero-copy subslices — and
// attributes cloud API hits to classes through the index structure, never
// materialising smali text. Scanning strings individually (rather than a
// concatenated smali blob) is deliberate: a marker can never match across
// the junction of two unrelated strings.
func (rep *Report) scanDex(t *markerTable, data []byte, cloud *cloudAccum) {
	rd, err := dex.ParseRaw(data)
	if err != nil {
		return
	}
	var strCloud map[uint32]uint64 // string index -> matched-API bitmask
	var cur uint32
	hit := func(id int32) {
		a := t.acts[id]
		if a.kind == mkCloud {
			if strCloud == nil {
				strCloud = map[uint32]uint64{}
			}
			strCloud[cur] |= uint64(1) << uint(a.cloud)
			return
		}
		rep.applyMarkerAction(a)
	}
	for si := range rd.Strings {
		cur = uint32(si)
		t.sc.Scan(rd.Strings[si], hit)
	}
	if len(strCloud) == 0 {
		return
	}
	for ci := 0; ci < rd.NumClasses(); ci++ {
		mask := strCloud[rd.ClassNameIndex(ci)]
		for _, ref := range rd.ClassRefs(ci) {
			mask |= strCloud[ref]
		}
		if mask == 0 {
			continue
		}
		file := dex.SmaliPath(string(rd.ClassName(ci)))
		for b := int32(0); mask != 0; b++ {
			if mask&1 != 0 {
				cloud.add(b, file)
			}
			mask >>= 1
		}
	}
}

// scanNativeLib streams the soname and dynamic symbol table of an encoded
// shared object through the automaton, string by string, with no
// NativeLib materialisation. Hits apply only if the whole walk validates,
// mirroring the old decode-then-scan behaviour on truncated payloads.
func (rep *Report) scanNativeLib(t *markerTable, data []byte) {
	var ids []int32
	hit := func(id int32) { ids = append(ids, id) }
	err := dex.WalkNativeLibStrings(data, func(s []byte) bool {
		t.sc.Scan(s, hit)
		return true
	})
	if err != nil {
		return
	}
	for _, id := range ids {
		a := t.acts[id]
		if a.kind != mkCloud { // cloud call sites are a dex-only signal
			rep.applyMarkerAction(a)
		}
	}
}

// entry is one package member, materialised on demand: map-backed entries
// carry their bytes, APK-backed entries read lazily (zero-copy for stored
// members). An entry is read at most once and hashed at most once; a read
// that failed fails again with the same error, without reading again.
type entry struct {
	name   string
	data   []byte
	loaded bool
	err    error
	lazy   *apk.Entry
	sum    [sha256.Size]byte
	summed bool
}

func (e *entry) bytes() ([]byte, error) {
	if !e.loaded && e.err == nil {
		e.data, e.err = e.lazy.Data()
		e.loaded = e.err == nil
	}
	return e.data, e.err
}

// digest returns the sha256 of the entry's bytes, the digest both the
// report key and the payload keys are built from.
func (e *entry) digest() ([sha256.Size]byte, error) {
	if !e.summed {
		data, err := e.bytes()
		if err != nil {
			return e.sum, err
		}
		e.sum = sha256.Sum256(data)
		e.summed = true
	}
	return e.sum, nil
}

// ExtractAPK opens an APK and extracts everything from it.
func ExtractAPK(apkBytes []byte) (*Report, error) {
	return ExtractAPKCached(context.Background(), apkBytes, nil)
}

// ExtractAPKCached is ExtractAPK with a payload-decode cache: candidate
// file-sets are content-hashed before decoding and byte-identical payloads
// seen before (any shard, either snapshot) skip graph decode entirely.
// Models extracted through a cache carry a nil Graph; their decoded data
// lives behind the cache, keyed by checksum. ctx bounds the work:
// cancellation aborts between candidates and inside cache waits, and the
// context error comes back unwrapped in the chain (errors.Is-matchable).
// It is OpenAPK(apkBytes).Extract(ctx, cache).
func ExtractAPKCached(ctx context.Context, apkBytes []byte, cache DecodeCache) (*Report, error) {
	return OpenAPK(apkBytes).Extract(ctx, cache)
}

// extractEntries is the shared extraction core. Entries are processed in
// name order; only those entryKinds names (code files and extension-
// matching candidates) are ever materialised.
func extractEntries(ctx context.Context, entries []*entry, cache DecodeCache) (*Report, error) {
	rep := &Report{}
	t := markers()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	// Code analysis: dex string tables and native symbol tables stream
	// through the marker automaton.
	var cloud cloudAccum
	cloud.apis = t.apis
	for _, e := range entries {
		isDexName, isLibName, _ := entryKinds(e.name)
		if !isDexName && !isLibName {
			continue
		}
		data, err := e.bytes()
		if err != nil {
			return nil, err
		}
		switch {
		case isDexName && dex.IsDex(data):
			rep.scanDex(t, data, &cloud)
		case isLibName && dex.IsNativeLib(data):
			rep.scanNativeLib(t, data)
		}
	}
	rep.CloudAPIs = cloud.detections()

	// Model extraction. Each candidate file that passes signature
	// validation seeds a decode attempt; multi-file formats (caffe
	// prototxt+caffemodel, ncnn param+bin) pull in unconsumed same-stem
	// siblings whose extensions the identified format claims. Files are
	// consumed at most once, so a tflite model sharing its stem with an
	// ncnn pair still extracts separately.
	var candidates []int
	byStem := map[string][]int{}
	lower := make([]string, len(entries))
	for i, e := range entries {
		name := e.name
		if _, _, isCandidate := entryKinds(name); !isCandidate {
			continue
		}
		rep.CandidateFiles++
		candidates = append(candidates, i)
		byStem[stemOf(name)] = append(byStem[stemOf(name)], i)
		// Lowercase once per candidate; sibling-claim checks reuse it.
		lower[i] = strings.ToLower(name)
	}
	consumed := make([]bool, len(entries))
	identified := make([]bool, len(entries))
	var files []payloadFile // the payload key's view of one group, reused
	for _, ci := range candidates {
		if err := ctx.Err(); err != nil {
			// Cancellation between candidates: the partial report is
			// discarded by the caller, nothing has been recorded as failed.
			return nil, err
		}
		if consumed[ci] {
			continue
		}
		name := entries[ci].name
		data, err := entries[ci].bytes()
		if err != nil {
			return nil, err
		}
		format, ok := formats.Identify(path.Base(name), data)
		if !ok {
			continue
		}
		identified[ci] = true
		set := formats.FileSet{path.Base(name): data}
		group := []int{ci}
		total := len(data)
		for _, si := range byStem[stemOf(name)] {
			if si == ci || consumed[si] {
				continue
			}
			if !formatClaims(format, lower[si]) {
				continue
			}
			sd, err := entries[si].bytes()
			if err != nil {
				return nil, err
			}
			set[path.Base(entries[si].name)] = sd
			group = append(group, si)
			total += len(sd)
		}
		var h PayloadHash
		if cache != nil {
			h, files = groupKey(format.Name(), entries, group, files)
		}
		sum, g, ok, err := decodeSet(ctx, cache, h, format, set)
		if err != nil {
			return nil, err
		}
		if !ok {
			consumed[ci] = true
			rep.FailedValidation = append(rep.FailedValidation, name)
			continue
		}
		for _, gi := range group {
			consumed[gi] = true
		}
		rep.Models = append(rep.Models, Model{
			Path:      name,
			Framework: format.Name(),
			Graph:     g,
			Checksum:  sum,
			FileBytes: total,
		})
		// Model payloads imply the framework is present even without code
		// markers (e.g. apps loading models through vendored runtimes).
		rep.addFramework(format.Name())
	}
	// Candidate files that neither validated nor joined a decoded set are
	// potential obfuscated/encrypted models.
	for _, ci := range candidates {
		if !consumed[ci] && !identified[ci] {
			rep.FailedValidation = append(rep.FailedValidation, entries[ci].name)
		}
	}
	sort.Strings(rep.FailedValidation)
	sort.Strings(rep.Frameworks)
	metModels.Add(uint64(len(rep.Models)))
	metFailedValidations.Add(uint64(len(rep.FailedValidation)))
	return rep, nil
}

// groupKey is the payload key of the file set a group of read entries
// forms, by HashPayload's rule but from the digests the entries carry. A
// member whose base name an earlier member already had replaced it in the
// set, and replaces it here too. files is scratch space, returned for
// reuse.
func groupKey(format string, entries []*entry, group []int, files []payloadFile) (PayloadHash, []payloadFile) {
	files = files[:0]
	for _, gi := range group {
		e := entries[gi]
		// Every member was read to join the group, so this cannot fail.
		sum, _ := e.digest()
		f := payloadFile{name: path.Base(e.name), size: len(e.data), sum: sum}
		if j := slices.IndexFunc(files, func(p payloadFile) bool { return p.name == f.name }); j >= 0 {
			files[j] = f
		} else {
			files = append(files, f)
		}
	}
	sortFiles(files)
	return payloadKey(format, files), files
}

// decodeSet validates and decodes one candidate file-set, going through
// the cache's payload front door under the set's payload key h when one is
// wired in (hash-before-decode: a duplicate payload costs its sha256
// digests, which the report key shares, instead of a full graph decode).
// err is non-nil only for cancellation, which must abort the whole report
// rather than count as a failed validation.
func decodeSet(ctx context.Context, cache DecodeCache, h PayloadHash, format formats.Format, set formats.FileSet) (graph.Checksum, *graph.Graph, bool, error) {
	if cache == nil {
		g, err := format.Decode(set)
		if err != nil {
			return "", nil, false, nil
		}
		return graph.ModelChecksum(g), g, true, nil
	}
	sum, ok, err := cache.Payload(ctx, h, func() (*graph.Graph, error) { return format.Decode(set) })
	if err != nil {
		return "", nil, false, err
	}
	return sum, nil, ok, nil
}

// formatClaims reports whether the format lists an extension the file's
// pre-lowercased name carries.
func formatClaims(f formats.Format, lowerName string) bool {
	for _, ext := range f.Extensions() {
		if strings.HasSuffix(lowerName, ext) {
			return true
		}
	}
	return false
}

func (r *Report) addFramework(fw string) {
	for _, f := range r.Frameworks {
		if f == fw {
			return
		}
	}
	r.Frameworks = append(r.Frameworks, fw)
}

// stemOf strips the directory and the (possibly compound) extension:
// assets/models/detector.tflite -> assets/models/detector.
func stemOf(name string) string {
	dir, base := path.Split(name)
	lower := strings.ToLower(base)
	for _, compound := range []string{".pth.tar", ".cfg.ncnn", ".weights.ncnn"} {
		if strings.HasSuffix(lower, compound) {
			return dir + base[:len(base)-len(compound)]
		}
	}
	if i := strings.LastIndex(base, "."); i > 0 {
		return dir + base[:i]
	}
	return dir + base
}

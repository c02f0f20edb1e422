// Package event defines the typed progress stream the study engine and
// the fleet scheduler emit. Producers call a consumer-supplied func(Event);
// consumers switch on the concrete variant. The root gaugenn package
// re-exports the types and exposes a drained-channel view via
// Study.Events; the tracing layer (internal/obs.Tracer) folds the same
// stream into spans, and future serve-side SSE can marshal the variants.
//
// The package is deliberately dependency-free (standard library only):
// every layer of the pipeline may emit or consume events, so anything
// event imported would be un-instrumentable without a cycle.
//
// Delivery contract: events for one stage are ordered (StageStart once,
// StageProgress with monotonically non-decreasing Done, StageDone once
// when the stage completes), but stages from concurrent pipelines — the
// two study snapshots — interleave. Handlers may be called from multiple
// goroutines and must be safe for concurrent use.
//
// Every delivered event carries a Stamp: a reading of the process
// monotonic clock plus a process-wide sequence number, assigned at
// emission. Within one stage, stamps are assigned under the stage's
// serialising lock, so both Seq and Time are non-decreasing in delivery
// order; across stages Seq gives a total order of emission that makes
// interleaved snapshot output attributable after the fact. Span builders
// subtract Times (monotonic-safe) for durations.
package event

import (
	"sync/atomic"
	"time"
)

// Event is the closed set of progress notifications a run emits.
type Event interface{ event() }

// Stamp orders an event in time: Time is a monotonic clock reading taken
// when the event was emitted (durations come from Time.Sub, which uses
// the monotonic reading; wall-clock adjustments never distort a span),
// and Seq is a process-wide emission sequence number. The zero Stamp
// marks an event that has not passed through an emitter yet.
type Stamp struct {
	Seq  uint64
	Time time.Time
}

// seq is the process-wide emission counter behind Stamped.
var seq atomic.Uint64

// Now returns a fresh stamp: the next sequence number and the current
// monotonic clock reading.
func Now() Stamp {
	return Stamp{Seq: seq.Add(1), Time: time.Now()}
}

// Stamped returns ev with a fresh Stamp assigned. Emitters call it at
// the single point an event enters the stream; consumers receive every
// variant stamped. An already-stamped event is re-stamped — emission,
// not construction, is the observable moment.
func Stamped(ev Event) Event {
	s := Now()
	switch v := ev.(type) {
	case StageStart:
		v.Stamp = s
		return v
	case StageProgress:
		v.Stamp = s
		return v
	case StageDone:
		v.Stamp = s
		return v
	case StageWarning:
		v.Stamp = s
		return v
	case CacheStats:
		v.Stamp = s
		return v
	case ExecUnit:
		v.Stamp = s
		return v
	}
	return ev
}

// StageStart announces a stage and its total step count before any step
// lands. Snapshot is the study snapshot label ("2020"/"2021") or empty
// for non-snapshot stages (fleet).
type StageStart struct {
	Stamp
	Stage    string
	Snapshot string
	Total    int
}

// StageProgress reports one completed step of a running stage.
type StageProgress struct {
	Stamp
	Stage    string
	Snapshot string
	Done     int
	Total    int
}

// StageDone marks a stage fully complete.
type StageDone struct {
	Stamp
	Stage    string
	Snapshot string
	Total    int
}

// StageWarning reports a per-app failure the run survived: the app was
// quarantined (dropped from the snapshot's corpus) and the stage carried
// on. Err is the rendered cause — a string, not an error, so the event is
// value-only and serialisable; the typed errs.AppError chain lives on
// StudyResult.Quarantine.
type StageWarning struct {
	Stamp
	Stage    string
	Snapshot string
	Package  string
	Err      string
}

// CacheBreakdown is the analysis cache's decode/profile/warm-hit work
// split, mirrored from analysis.CacheStats field for field (the event
// package cannot import analysis — see the package comment).
type CacheBreakdown struct {
	// Decodes counts graph decodes executed (payload-cache misses).
	Decodes int64
	// Profiles counts per-checksum analyses computed.
	Profiles int64
	// WarmPayloadHits counts payload outcomes loaded from disk.
	WarmPayloadHits int64
	// WarmAnalysisHits counts analysis records loaded from disk.
	WarmAnalysisHits int64
	// Payloads / Checksums count distinct keys seen in this process.
	Payloads  int
	Checksums int
}

// CacheStats summarises a CacheDir-backed run's warm/cold work split once
// the persist stage finishes — the machine-readable form of the
// `gaugenn study -v` cache line.
type CacheStats struct {
	Stamp
	// StudyID is the run's manifest identity.
	StudyID string
	// WarmReports / ExtractedReports split the APK-level work.
	WarmReports, ExtractedReports int64
	// Packaged counts APKs built for the run (zero on an identical warm
	// in-process re-run).
	Packaged int64
	// Stats is the analysis cache's decode/profile/warm-hit breakdown.
	Stats CacheBreakdown
}

// ExecUnit reports one matrix unit measured for real through the
// internal/exec interpreter (fleet executed mode). All fields are values
// mirrored from the result — the event package cannot import bench or
// exec (see the package comment). OutputDigest is the determinism
// witness: identical digests across runs, workers and pool sizes mean
// byte-identical inference outputs.
type ExecUnit struct {
	Stamp
	Model        string
	Device       string
	Backend      string
	OutputDigest string
	// MeanLatencyNS is the mean measured wall-clock latency per inference.
	MeanLatencyNS int64
}

func (StageStart) event()    {}
func (StageProgress) event() {}
func (StageDone) event()     {}
func (StageWarning) event()  {}
func (CacheStats) event()    {}
func (ExecUnit) event()      {}

// StageName renders a stage and its snapshot as one label ("crawl-2021"),
// as the CLI's progress line shows it.
func StageName(stage, snapshot string) string {
	if snapshot == "" {
		return stage
	}
	return stage + "-" + snapshot
}

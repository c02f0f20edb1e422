package core

import (
	"sync"
	"time"

	"github.com/gaugenn/gaugenn/internal/event"
	"github.com/gaugenn/gaugenn/internal/obs"
)

// Study-level series. Stage durations are derived from the stamped event
// stream itself (StageStart to StageDone, per stage and snapshot), so
// the histogram agrees with what any other event consumer — the tracer,
// the CLI renderer — would measure. The cache gauges publish the
// CacheStats warm/cold split for /healthz and /metrics.
var (
	metRuns = obs.Default().Counter("gaugenn_study_runs_total",
		"Study runs started.")
	metRunFailures = obs.Default().Counter("gaugenn_study_run_failures_total",
		"Study runs that returned an error.")
	metWarnings = obs.Default().Counter("gaugenn_study_stage_warnings_total",
		"Per-app failures survived via quarantine, across all stages.")

	gaugeWarmReports = obs.Default().Gauge("gaugenn_study_warm_reports",
		"APK reports loaded from the store on the most recent run.")
	gaugeExtracted = obs.Default().Gauge("gaugenn_study_extracted_reports",
		"APK reports extracted cold on the most recent run.")
	gaugePackaged = obs.Default().Gauge("gaugenn_study_packaged_apks",
		"APKs packaged on the most recent run.")
	gaugeDecodes = obs.Default().Gauge("gaugenn_study_cache_decodes",
		"Graph decodes executed on the most recent run.")
	gaugeProfiles = obs.Default().Gauge("gaugenn_study_cache_profiles",
		"Analyses computed on the most recent run.")
	gaugeWarmPayloads = obs.Default().Gauge("gaugenn_study_cache_warm_payload_hits",
		"Payload outcomes served warm on the most recent run.")
	gaugeWarmAnalyses = obs.Default().Gauge("gaugenn_study_cache_warm_analysis_hits",
		"Analysis records served warm on the most recent run.")
)

// stageSeconds resolves the duration histogram child for one stage name.
func stageSeconds(stage string) *obs.Histogram {
	return obs.Default().Histogram("gaugenn_study_stage_seconds",
		"Stage wall time in seconds, start to done, per snapshot run.",
		nil, obs.Label{Name: "stage", Value: stage})
}

// stageTimes turns the engine's stamped event stream into stage-duration
// observations and cache-gauge updates. One instance per engine; its own
// lock keeps it safe under the two concurrent snapshot pipelines.
type stageTimes struct {
	mu    sync.Mutex
	start map[[2]string]time.Time
}

func newStageTimes() *stageTimes {
	return &stageTimes{start: map[[2]string]time.Time{}}
}

// observe consumes one already-stamped event.
func (t *stageTimes) observe(ev event.Event) {
	switch v := ev.(type) {
	case event.StageStart:
		t.mu.Lock()
		t.start[[2]string{v.Stage, v.Snapshot}] = v.Stamp.Time
		t.mu.Unlock()
	case event.StageDone:
		k := [2]string{v.Stage, v.Snapshot}
		t.mu.Lock()
		at, ok := t.start[k]
		delete(t.start, k)
		t.mu.Unlock()
		if ok {
			stageSeconds(v.Stage).Observe(v.Stamp.Time.Sub(at).Seconds())
		}
	case event.StageWarning:
		metWarnings.Inc()
	case event.CacheStats:
		gaugeWarmReports.SetInt(v.WarmReports)
		gaugeExtracted.SetInt(v.ExtractedReports)
		gaugePackaged.SetInt(v.Packaged)
		gaugeDecodes.SetInt(v.Stats.Decodes)
		gaugeProfiles.SetInt(v.Stats.Profiles)
		gaugeWarmPayloads.SetInt(v.Stats.WarmPayloadHits)
		gaugeWarmAnalyses.SetInt(v.Stats.WarmAnalysisHits)
	}
}

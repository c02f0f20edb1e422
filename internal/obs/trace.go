package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/gaugenn/gaugenn/internal/event"
)

// Tracer folds the typed event stream into spans. Each (stage, snapshot)
// pair becomes one span opened by StageStart and closed by StageDone;
// StageProgress updates the span's step count; StageWarning and
// CacheStats become instant markers. The whole run nests under a root
// span stretching from the first to the last observed event.
//
// Observe is safe to install directly as (or inside) an event handler:
// it serialises internally, so the concurrent-handler delivery contract
// of package event is satisfied.
//
// ChromeTrace renders the collected spans as Chrome trace-event JSON
// (the chrome://tracing / Perfetto "JSON Array Format"): complete events
// (ph "X") for spans, instant events (ph "i") for warnings and cache
// stats, and thread-name metadata (ph "M") mapping each snapshot to its
// own track. Timestamps are microseconds relative to the first event,
// computed from monotonic Stamp.Time differences, so wall-clock steps
// never distort a span.
type Tracer struct {
	root string

	mu      sync.Mutex
	started bool
	first   time.Time // stamp of the first observed event
	last    time.Time // stamp of the most recent observed event
	spans   map[spanKey]*span
	order   []spanKey      // span creation order, for stable output
	tids    map[string]int // snapshot -> thread id
	marks   []mark         // instant events
}

type spanKey struct{ stage, snapshot string }

type span struct {
	key        spanKey
	start, end time.Time
	done       int  // last reported Done
	total      int  // Total from StageStart (or best known)
	closed     bool // saw StageDone
}

type mark struct {
	at       time.Time
	snapshot string
	name     string
	args     map[string]any
}

// NewTracer returns a tracer whose root span carries the given name
// (typically the study ID or "study").
func NewTracer(root string) *Tracer {
	return &Tracer{
		root:  root,
		spans: map[spanKey]*span{},
		tids:  map[string]int{},
	}
}

// Observe records one event. Install it as an event handler:
//
//	opts.OnEvent = tracer.Observe
func (t *Tracer) Observe(ev event.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	stamp := stampOf(ev)
	if stamp.Time.IsZero() {
		// Unstamped events (none in practice — emitters stamp at the
		// single emission point) still advance nothing but are kept out
		// of the timeline rather than collapsing to t=0.
		return
	}
	if !t.started || stamp.Time.Before(t.first) {
		if !t.started {
			t.first = stamp.Time
			t.started = true
		} else {
			t.first = stamp.Time
		}
	}
	if stamp.Time.After(t.last) {
		t.last = stamp.Time
	}
	switch v := ev.(type) {
	case event.StageStart:
		k := spanKey{v.Stage, v.Snapshot}
		if _, ok := t.spans[k]; !ok {
			t.spans[k] = &span{key: k, start: stamp.Time, total: v.Total}
			t.order = append(t.order, k)
			t.tidFor(v.Snapshot)
		}
	case event.StageProgress:
		if sp := t.span(v.Stage, v.Snapshot, stamp.Time); sp != nil {
			sp.done = v.Done
			if v.Total > sp.total {
				sp.total = v.Total
			}
		}
	case event.StageDone:
		if sp := t.span(v.Stage, v.Snapshot, stamp.Time); sp != nil {
			sp.end = stamp.Time
			sp.closed = true
			if v.Total > sp.total {
				sp.total = v.Total
			}
			sp.done = sp.total
		}
	case event.StageWarning:
		t.marks = append(t.marks, mark{
			at: stamp.Time, snapshot: v.Snapshot, name: "warning:" + v.Stage,
			args: map[string]any{"package": v.Package, "err": v.Err},
		})
	case event.CacheStats:
		t.marks = append(t.marks, mark{
			at: stamp.Time, snapshot: "", name: "cache-stats",
			args: map[string]any{
				"study":              v.StudyID,
				"warm_reports":       v.WarmReports,
				"extracted_reports":  v.ExtractedReports,
				"packaged":           v.Packaged,
				"decodes":            v.Stats.Decodes,
				"profiles":           v.Stats.Profiles,
				"warm_payload_hits":  v.Stats.WarmPayloadHits,
				"warm_analysis_hits": v.Stats.WarmAnalysisHits,
			},
		})
	}
}

// span finds (or, for progress on a stage whose Start was missed,
// creates) the span for a stage.
func (t *Tracer) span(stage, snapshot string, at time.Time) *span {
	k := spanKey{stage, snapshot}
	sp, ok := t.spans[k]
	if !ok {
		sp = &span{key: k, start: at}
		t.spans[k] = sp
		t.order = append(t.order, k)
		t.tidFor(snapshot)
	}
	return sp
}

// tidFor assigns thread ids in first-seen snapshot order; tid 0 is the
// root track.
func (t *Tracer) tidFor(snapshot string) int {
	if id, ok := t.tids[snapshot]; ok {
		return id
	}
	id := len(t.tids) + 1
	t.tids[snapshot] = id
	return id
}

// traceEvent is one entry in the Chrome trace JSON array.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    int64          `json:"ts"` // microseconds
	Dur   int64          `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeTrace renders everything observed so far as a Chrome trace-event
// JSON array. Spans never closed by a StageDone (cancelled runs) are
// truncated at the last observed timestamp and flagged unfinished, so a
// partial run still loads.
func (t *Tracer) ChromeTrace() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.started {
		return json.Marshal([]traceEvent{})
	}
	us := func(at time.Time) int64 { return at.Sub(t.first).Microseconds() }
	var evs []traceEvent

	evs = append(evs, traceEvent{
		Name: "process_name", Phase: "M", Pid: 1, Tid: 0,
		Args: map[string]any{"name": "gaugenn"},
	})
	evs = append(evs, traceEvent{
		Name: "thread_name", Phase: "M", Pid: 1, Tid: 0,
		Args: map[string]any{"name": "study"},
	})
	snaps := make([]string, 0, len(t.tids))
	for s := range t.tids {
		snaps = append(snaps, s)
	}
	sort.Slice(snaps, func(i, j int) bool { return t.tids[snaps[i]] < t.tids[snaps[j]] })
	for _, s := range snaps {
		name := s
		if name == "" {
			name = "pipeline"
		}
		evs = append(evs, traceEvent{
			Name: "thread_name", Phase: "M", Pid: 1, Tid: t.tids[s],
			Args: map[string]any{"name": "snapshot " + name},
		})
	}

	// Root span covers the full observed window on tid 0.
	evs = append(evs, traceEvent{
		Name: t.root, Phase: "X", Ts: 0, Dur: maxInt64(us(t.last), 1), Pid: 1, Tid: 0,
	})

	for _, k := range t.order {
		sp := t.spans[k]
		end := sp.end
		if !sp.closed {
			end = t.last
		}
		args := map[string]any{"done": sp.done, "total": sp.total}
		if !sp.closed {
			args["unfinished"] = true
		}
		name := sp.key.stage
		if sp.key.snapshot != "" {
			name = fmt.Sprintf("%s (%s)", sp.key.stage, sp.key.snapshot)
		}
		evs = append(evs, traceEvent{
			Name: name, Phase: "X",
			Ts: us(sp.start), Dur: maxInt64(end.Sub(sp.start).Microseconds(), 1),
			Pid: 1, Tid: t.tidFor(sp.key.snapshot), Args: args,
		})
	}

	for _, m := range t.marks {
		evs = append(evs, traceEvent{
			Name: m.name, Phase: "i", Ts: us(m.at),
			Pid: 1, Tid: t.tidFor(m.snapshot), Scope: "t", Args: m.args,
		})
	}
	return json.MarshalIndent(evs, "", " ")
}

// stampOf extracts the Stamp from any event variant.
func stampOf(ev event.Event) event.Stamp {
	switch v := ev.(type) {
	case event.StageStart:
		return v.Stamp
	case event.StageProgress:
		return v.Stamp
	case event.StageDone:
		return v.Stamp
	case event.StageWarning:
		return v.Stamp
	case event.CacheStats:
		return v.Stamp
	}
	return event.Stamp{}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

package sched

import (
	"sync"

	"github.com/gaugenn/gaugenn/internal/event"
)

// WireEvent is the serialisable form of one study event as streamed to
// SSE clients. Seq is the event's process-monotonic event.Stamp.Seq — the
// resume cursor a client echoes back as Last-Event-ID — except for the
// synthetic lifecycle variants ("state", "end", "truncated"), which draw a
// fresh stamp at publication so the cursor stays strictly increasing
// across real and synthetic events alike.
type WireEvent struct {
	Seq      uint64 `json:"seq"`
	Type     string `json:"type"`
	Stage    string `json:"stage,omitempty"`
	Snapshot string `json:"snapshot,omitempty"`
	Done     int    `json:"done,omitempty"`
	Total    int    `json:"total,omitempty"`
	Package  string `json:"package,omitempty"`
	Err      string `json:"error,omitempty"`
	// State carries the job's lifecycle on "state" and "end" events
	// (queued, running, preempted, done, failed, cancelled).
	State string `json:"state,omitempty"`
	// StudyID is the manifest identity of the persisted study, set on the
	// terminal "end" event of a successful run.
	StudyID string `json:"study_id,omitempty"`
}

// Wire event type names. Stage events mirror the event package variants;
// the lifecycle types are synthesised by the scheduler.
const (
	TypeStageStart = "stage_start"
	TypeProgress   = "progress"
	TypeStageDone  = "stage_done"
	TypeWarning    = "warning"
	TypeCacheStats = "cache_stats"
	// TypeState marks a job lifecycle transition (queued -> running,
	// running -> preempted -> queued, ...).
	TypeState = "state"
	// TypeEnd closes a stream: the job reached a terminal state.
	TypeEnd = "end"
	// TypeTruncated warns a resuming client that events between its
	// cursor and the ring's oldest retained event were evicted: the
	// replay that follows is the oldest the server still holds.
	TypeTruncated = "truncated"
)

// fromEvent converts a typed pipeline event to its wire form. The bool is
// false for variants that have no wire representation.
func fromEvent(ev event.Event) (WireEvent, bool) {
	switch v := ev.(type) {
	case event.StageStart:
		return WireEvent{Seq: v.Seq, Type: TypeStageStart, Stage: v.Stage, Snapshot: v.Snapshot, Total: v.Total}, true
	case event.StageProgress:
		return WireEvent{Seq: v.Seq, Type: TypeProgress, Stage: v.Stage, Snapshot: v.Snapshot, Done: v.Done, Total: v.Total}, true
	case event.StageDone:
		return WireEvent{Seq: v.Seq, Type: TypeStageDone, Stage: v.Stage, Snapshot: v.Snapshot, Total: v.Total}, true
	case event.StageWarning:
		return WireEvent{Seq: v.Seq, Type: TypeWarning, Stage: v.Stage, Snapshot: v.Snapshot, Package: v.Package, Err: v.Err}, true
	case event.CacheStats:
		return WireEvent{Seq: v.Seq, Type: TypeCacheStats, StudyID: v.StudyID}, true
	}
	return WireEvent{}, false
}

// subBuffer is each subscriber's channel capacity: enough to ride out
// scheduling hiccups, small enough that a genuinely stalled reader is
// detected (and dropped) after a bounded number of events rather than
// pinning memory for the stream's lifetime.
const subBuffer = 256

// Sub is one live subscription to a ring. Events arrive on C strictly
// after the replay slice Subscribe returned, with no gap and no
// duplicate; the ring closes C when the stream ends (terminal event
// delivered) or when the subscriber lags so far behind that its buffer
// overflows — a closed C with a non-terminal last event is the
// reconnect-with-cursor signal.
type Sub struct {
	C    <-chan WireEvent
	ch   chan WireEvent
	ring *Ring
}

// Cancel detaches the subscription. Safe to call twice, and after the
// ring closed it.
func (s *Sub) Cancel() {
	if s == nil {
		return
	}
	s.ring.unsubscribe(s)
}

// Ring is a bounded per-study event buffer with replay: the pipeline
// publishes into it without ever blocking (a full ring evicts its oldest
// event; a slow subscriber is dropped, not waited for), and clients
// resume from any cursor still covered by the buffer. All methods are
// safe for concurrent use.
type Ring struct {
	mu     sync.Mutex
	buf    []WireEvent // dense, oldest first; len <= cap
	cap    int
	closed bool
	// evictedMax is the highest Seq ever evicted: a resume cursor below
	// it cannot be served gap-free.
	evictedMax uint64
	subs       map[*Sub]struct{}
}

// NewRing builds a ring retaining the last capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{cap: capacity, subs: map[*Sub]struct{}{}}
}

// Publish appends ev and fans it out to live subscribers. A subscriber
// whose buffer is full is dropped (its channel closed): the publisher —
// ultimately the study pipeline's event hook — never blocks on a
// consumer.
func (r *Ring) Publish(ev WireEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.append(ev)
	r.fanOut(ev)
}

// PublishEvent publishes the wire form of a typed pipeline event.
func (r *Ring) PublishEvent(ev event.Event) {
	if w, ok := fromEvent(ev); ok {
		r.Publish(w)
	}
}

// Close appends the terminal events, fans them out, and closes every
// subscriber channel. Further publishes are dropped; Subscribe still
// replays the retained buffer (a late client gets the full tail including
// the terminal event, then sees its channel closed).
func (r *Ring) Close(finals ...WireEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	for _, ev := range finals {
		r.append(ev)
		r.fanOut(ev)
	}
	r.closed = true
	if n := len(r.subs); n > 0 {
		for s := range r.subs {
			close(s.ch)
			delete(r.subs, s)
		}
		metSubscribers.Set(float64(totalSubs.Add(-int64(n))))
	}
}

// append stores ev, evicting the oldest event when the ring is full.
// Callers hold r.mu.
func (r *Ring) append(ev WireEvent) {
	if len(r.buf) == r.cap {
		if s := r.buf[0].Seq; s > r.evictedMax {
			r.evictedMax = s
		}
		copy(r.buf, r.buf[1:])
		r.buf = r.buf[:len(r.buf)-1]
		metRingEvictions.Inc()
	}
	r.buf = append(r.buf, ev)
}

// fanOut delivers ev to every subscriber, dropping any whose buffer is
// full. Callers hold r.mu.
func (r *Ring) fanOut(ev WireEvent) {
	for s := range r.subs {
		select {
		case s.ch <- ev:
		default:
			// Lagging consumer: cut it loose. It reconnects with its last
			// seen cursor and replays from the ring.
			close(s.ch)
			delete(r.subs, s)
			metSubscriberDrops.Inc()
			metSubscribers.Set(float64(totalSubs.Add(-1)))
		}
	}
}

// Subscribe returns the retained events with Seq > after, a live
// subscription for what follows (nil if the ring is closed — the replay
// already ends with the terminal event), and whether the replay has a
// gap: true means at least one event with Seq > after was already
// evicted, so the client's cursor predates the buffer.
//
// The replay slice and the subscription are cut under one lock: an event
// is either in the replay or delivered on the channel, never both, never
// neither.
func (r *Ring) Subscribe(after uint64) (replay []WireEvent, sub *Sub, truncated bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	truncated = r.evictedMax > after
	for _, ev := range r.buf {
		if ev.Seq > after {
			replay = append(replay, ev)
		}
	}
	if r.closed {
		return replay, nil, truncated
	}
	ch := make(chan WireEvent, subBuffer)
	s := &Sub{C: ch, ch: ch, ring: r}
	r.subs[s] = struct{}{}
	metSubscribers.Set(float64(totalSubs.Add(1)))
	return replay, s, truncated
}

func (r *Ring) unsubscribe(s *Sub) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.subs[s]; ok {
		delete(r.subs, s)
		close(s.ch)
		metSubscribers.Set(float64(totalSubs.Add(-1)))
	}
}

package main

import (
	"encoding/json"
	"errors"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gaugenn/gaugenn/internal/event"
	"github.com/gaugenn/gaugenn/internal/store"
)

// span is one timed call into a layer, recorded from outside the program.
// Op is shared by every span of one operation (one app of a replayed
// study, one request, one inference); Parent indexes the enclosing span,
// -1 for a root.
type span struct {
	Name   string
	Op     int64
	Parent int32
	Start  time.Duration // since the tracer started
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. Parents come from a
// stack of open spans, so nesting is exact for the serial callers that
// open children (the study replay); concurrent callers record roots only.
// A nil *tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int32
	max   int
}

// newTracer records up to max spans. The first 64k are allocated up
// front, so recording them allocates nothing inside measured loops.
func newTracer(max int) *tracer {
	return &tracer{t0: time.Now(), max: max, spans: make([]span, 0, min(max, 1<<16))}
}

// begin opens a span under the innermost open one and returns its handle
// (-1 when nothing is recorded).
func (t *tracer) begin(name string, op int64) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.max {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	id := int32(len(t.spans) - 1)
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// root records a finished span with no parent, for concurrent callers.
func (t *tracer) root(name string, op int64, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.max {
		return
	}
	s := start.Sub(t.t0)
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: -1, Start: s, End: s + d})
}

// selfTimes sums, per span name, each span's duration minus the time its
// direct children cover: the layer's own share of the work.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += s.End - s.Start - child[i]
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write renders the spans as Chrome trace JSON (load it in Perfetto or
// chrome://tracing).
func (t *tracer) write(path string) error {
	t.mu.Lock()
	evs := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		evs[i] = chromeEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": i, "parent": s.Parent, "op": s.Op},
		}
	}
	t.mu.Unlock()
	js, err := json.Marshal(evs)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, js, 0o644)
}

// timingFS wraps the store's filesystem seam and measures every call:
// reads and misses, writes, bytes and busy time. With a tracer attached,
// each call is also a span nested in whatever layer call made it.
type timingFS struct {
	inner store.FS
	tr    *tracer
	op    atomic.Int64 // op id for the spans of the current operation

	reads, writes, misses atomic.Int64
	readBytes, writeBytes atomic.Int64
	readNS, writeNS       atomic.Int64
}

var _ store.FS = (*timingFS)(nil)

func (f *timingFS) timeRead(call func() error) {
	sp := f.tr.begin("store.read", f.op.Load())
	t0 := time.Now()
	err := call()
	f.readNS.Add(int64(time.Since(t0)))
	f.tr.end(sp)
	if errors.Is(err, iofs.ErrNotExist) {
		f.misses.Add(1)
	}
}

func (f *timingFS) ReadFile(name string) (data []byte, err error) {
	f.timeRead(func() error {
		data, err = f.inner.ReadFile(name)
		return err
	})
	if err == nil {
		f.reads.Add(1)
		f.readBytes.Add(int64(len(data)))
	}
	return data, err
}

func (f *timingFS) Stat(name string) (fi os.FileInfo, err error) {
	f.timeRead(func() error {
		fi, err = f.inner.Stat(name)
		return err
	})
	return fi, err
}

func (f *timingFS) ReadDir(name string) (des []os.DirEntry, err error) {
	f.timeRead(func() error {
		des, err = f.inner.ReadDir(name)
		return err
	})
	return des, err
}

func (f *timingFS) timeWrite(n int, call func() error) error {
	sp := f.tr.begin("store.write", f.op.Load())
	t0 := time.Now()
	err := call()
	f.writeNS.Add(int64(time.Since(t0)))
	f.tr.end(sp)
	if err == nil {
		f.writes.Add(1)
		f.writeBytes.Add(int64(n))
	}
	return err
}

func (f *timingFS) WriteFileAtomic(name string, data []byte) error {
	return f.timeWrite(len(data), func() error { return f.inner.WriteFileAtomic(name, data) })
}

func (f *timingFS) Append(name string, data []byte) error {
	return f.timeWrite(len(data), func() error { return f.inner.Append(name, data) })
}

// snapshotClock records, per study snapshot, the first and last event
// core.Run emits for it: the snapshot pipeline's wall time.
type snapshotClock struct {
	mu          sync.Mutex
	first, last map[string]time.Time
}

func newSnapshotClock() *snapshotClock {
	return &snapshotClock{first: map[string]time.Time{}, last: map[string]time.Time{}}
}

func (c *snapshotClock) observe(ev event.Event) {
	var label string
	var at time.Time
	switch v := ev.(type) {
	case event.StageStart:
		label, at = v.Snapshot, v.Time
	case event.StageProgress:
		label, at = v.Snapshot, v.Time
	case event.StageDone:
		label, at = v.Snapshot, v.Time
	default:
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.first[label]; !ok {
		c.first[label] = at
	}
	c.last[label] = at
}

func (c *snapshotClock) wall(label string) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last[label].Sub(c.first[label])
}

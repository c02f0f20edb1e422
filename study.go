package gaugenn

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gaugenn/gaugenn/internal/core"
	"github.com/gaugenn/gaugenn/internal/errs"
	"github.com/gaugenn/gaugenn/internal/event"
)

// The v2 study API: a context-first, composable surface over the
// core.Run pipeline. Construct a Study from functional options,
// optionally subscribe to its typed event stream, then Run it under a
// context you control:
//
//	study := gaugenn.NewStudy(
//		gaugenn.WithSeed(42),
//		gaugenn.WithScale(0.05),
//		gaugenn.WithCacheDir("studycache"),
//	)
//	go consume(study.Events())
//	res, err := study.Run(ctx)
//
// Cancelling ctx drains the pipeline promptly; the error satisfies
// errors.Is(err, ErrCancelled) (and context.Canceled), errors.As gives
// the *StageError naming where the run stopped, and a CacheDir-backed
// store is always left consistent for a later WithResume run. See
// docs/api.md for the full contract and the table mapping the removed v1
// calls onto this API.

// Sentinel errors, re-exported from the shared taxonomy for errors.Is.
var (
	// ErrCancelled matches any run stopped by context cancel or deadline.
	ErrCancelled = errs.ErrCancelled
	// ErrNoDevice matches fleet runs over a device model no rig serves.
	ErrNoDevice = errs.ErrNoDevice
	// ErrExhausted matches fleet cells whose every scheduling attempt failed.
	ErrExhausted = errs.ErrExhausted
	// ErrStoreCorrupt matches persisted records that no longer decode.
	ErrStoreCorrupt = errs.ErrStoreCorrupt
	// ErrBudgetExceeded matches runs aborted because more apps failed
	// than the failure budget tolerates (see WithFailureBudget).
	ErrBudgetExceeded = errs.ErrBudgetExceeded
)

// StageError attributes a failure to a pipeline stage; see errs.StageError.
type StageError = errs.StageError

// AppError is one quarantined app's failure: StudyResult.Quarantine lists
// them for runs that completed by degrading gracefully.
type AppError = errs.AppError

// BudgetError is the typed detail behind ErrBudgetExceeded: which
// snapshot blew the budget, the counts, and the failed packages.
type BudgetError = errs.BudgetError

// Event is the typed progress stream's interface; see the event package
// for the delivery contract.
type Event = event.Event

// StageStart / StageProgress / StageDone / StageWarning / CacheStatsEvent
// are the event stream's variants. StageWarning reports an app quarantined
// under the failure budget while the run continues.
type (
	StageStart      = event.StageStart
	StageProgress   = event.StageProgress
	StageDone       = event.StageDone
	StageWarning    = event.StageWarning
	CacheStatsEvent = event.CacheStats
)

// Option composes one Study configuration knob; later options win.
type Option func(*core.Config)

// WithSeed sets the synthetic store's generation seed (default 42).
func WithSeed(seed int64) Option {
	return func(c *core.Config) { c.Seed = seed }
}

// WithScale sizes the store relative to the paper's 16.6k-app crawl
// (default 0.05; 1.0 reproduces the paper).
func WithScale(scale float64) Option {
	return func(c *core.Config) { c.Scale = scale }
}

// WithWorkers bounds the per-snapshot crawl/extract/ingest fan-out
// (default 0 = GOMAXPROCS). Results are byte-identical for any value.
func WithWorkers(n int) Option {
	return func(c *core.Config) { c.Workers = n }
}

// WithCacheDir backs the run with a persistent content-addressed study
// store rooted at dir, and turns resumption on: re-runs warm-load
// everything the store already holds. Compose with WithResume(false) for
// a cold run that still writes through.
func WithCacheDir(dir string) Option {
	return func(c *core.Config) {
		c.CacheDir = dir
		c.Resume = true
	}
}

// WithResume toggles consulting existing store entries (meaningful only
// with WithCacheDir; see Config.Resume).
func WithResume(resume bool) Option {
	return func(c *core.Config) { c.Resume = resume }
}

// WithKeepGraphs retains decoded graphs on the corpora for benchmarking
// (default true; costs memory at scale).
func WithKeepGraphs(keep bool) Option {
	return func(c *core.Config) { c.KeepGraphs = keep }
}

// WithHTTPCrawl routes the crawl through the store's HTTP API — the
// realistic path (default false: in-process extraction for speed).
func WithHTTPCrawl(use bool) Option {
	return func(c *core.Config) { c.UseHTTP = use }
}

// WithFailureBudget sets the per-snapshot fraction of apps allowed to
// fail (quarantined, study continues) before the run aborts with
// ErrBudgetExceeded. Zero keeps the 5% default; a negative value demands
// zero tolerance. Quarantined apps surface as StageWarning events during
// the run and on StudyResult.Quarantine afterwards. See docs/robustness.md.
func WithFailureBudget(frac float64) Option {
	return func(c *core.Config) { c.FailureBudget = frac }
}

// WithEventHandler registers a synchronous event callback. Most callers
// want the drained-channel view (Study.Events) instead; a handler suits
// in-process bridges like the CLI's progress renderer. The handler may be
// called concurrently. Composes with Events: both receive every event.
func WithEventHandler(fn func(Event)) Option {
	return func(c *core.Config) { c.OnEvent = fn }
}

// Study is one configured study run. Zero or more option calls shape it,
// Run executes it exactly once; construct a new Study to run again.
type Study struct {
	cfg core.Config

	started atomic.Bool

	mu     sync.Mutex
	events *eventQueue
}

// NewStudy composes a study from functional options over the quick-study
// defaults (seed 42, scale 0.05, in-process crawl, graphs kept, chart
// depth 500).
func NewStudy(opts ...Option) *Study {
	cfg := core.DefaultConfig(42, 0.05)
	cfg.UseHTTP = false
	for _, o := range opts {
		o(&cfg)
	}
	return &Study{cfg: cfg}
}

// Events returns the study's typed event stream. The channel is unbounded
// upstream (the pipeline never blocks on a slow consumer) and is closed
// when Run returns; consumers should drain it until closed. A consumer
// that stops early does not pin the Study forever: once Run returns, any
// undelivered tail is dropped after a short grace and the channel closed.
// Must be called before Run: once the run has started, a fresh
// subscription can never receive anything, so it returns an
// already-closed channel (a ranged consumer exits immediately instead of
// hanging forever).
func (s *Study) Events() <-chan Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.events == nil {
		if s.started.Load() {
			ch := make(chan Event)
			close(ch)
			return ch
		}
		s.events = newEventQueue()
	}
	return s.events.ch
}

// Run executes the study under ctx: generate the store, crawl both
// snapshots, extract and validate every model, analyse the corpora, and
// — when a cache dir is configured — persist every derived artifact.
// Cancelling ctx drains the workers promptly and returns a *StageError
// wrapping the context error; a cancelled cache-backed run leaves the
// store consistent for a WithResume re-run. Run may be called once.
func (s *Study) Run(ctx context.Context) (*StudyResult, error) {
	if !s.started.CompareAndSwap(false, true) {
		return nil, fmt.Errorf("gaugenn: Study.Run called twice (construct a new Study per run)")
	}
	cfg := s.cfg
	s.mu.Lock()
	q := s.events
	s.mu.Unlock()
	if q != nil {
		prev := cfg.OnEvent
		cfg.OnEvent = func(ev Event) {
			if prev != nil {
				prev(ev)
			}
			q.push(ev)
		}
		defer q.close()
	}
	return core.Run(ctx, cfg)
}

// Bench benchmarks a model set under a RunSpec via the in-process
// harness; see core.Bench for the cancellation contract.
func Bench(ctx context.Context, spec RunSpec, models []BenchModel) ([]JobResult, error) {
	return core.Bench(ctx, spec, models)
}

// RunSpec names the device, backend and job shape of a Bench call; see
// core.RunSpec.
type RunSpec = core.RunSpec

// eventQueue decouples the pipeline from the Events consumer: emits are
// buffered without bound (events are small; a study emits O(apps) of
// them) and a pump goroutine forwards them, so a slow consumer delays
// delivery but never the run. close flushes the tail, then closes ch.
//
// An abandoned consumer (one that stops ranging before the channel
// closes) must not pin the pump forever: while the run is live the pump
// may park on the send, but once close is called — the producer is done
// — every further send is bounded by abandonGrace, after which the
// undelivered tail is dropped and the channel closed. A live consumer
// draining normally never hits the grace path and receives every event.
type eventQueue struct {
	ch chan Event

	mu      sync.Mutex
	cond    *sync.Cond
	buf     []Event
	closed  bool
	closeCh chan struct{} // closed by close(); wakes a pump parked on send
}

// abandonGrace bounds how long a post-close tail flush waits for an
// absent consumer before dropping the remaining events.
const abandonGrace = 5 * time.Second

func newEventQueue() *eventQueue {
	q := &eventQueue{ch: make(chan Event), closeCh: make(chan struct{})}
	q.cond = sync.NewCond(&q.mu)
	go q.pump()
	return q
}

func (q *eventQueue) push(ev Event) {
	q.mu.Lock()
	if !q.closed {
		q.buf = append(q.buf, ev)
		q.cond.Signal()
	}
	q.mu.Unlock()
}

func (q *eventQueue) close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.closeCh)
		q.cond.Signal()
	}
	q.mu.Unlock()
}

func (q *eventQueue) pump() {
	for {
		q.mu.Lock()
		for len(q.buf) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.buf) == 0 && q.closed {
			q.mu.Unlock()
			close(q.ch)
			return
		}
		ev := q.buf[0]
		q.buf = q.buf[1:]
		q.mu.Unlock()
		select {
		case q.ch <- ev:
			continue
		case <-q.closeCh:
			// Producer finished while we were parked on the send. Give the
			// consumer the grace period to drain this event, then treat it
			// as abandoned.
		}
		t := time.NewTimer(abandonGrace)
		select {
		case q.ch <- ev:
			t.Stop()
		case <-t.C:
			q.mu.Lock()
			q.buf = nil
			q.mu.Unlock()
			close(q.ch)
			return
		}
	}
}

// Package sched is the multi-tenant study scheduler behind the service
// API: submissions enter a bounded priority queue, a bounded worker pool
// executes them through the ctx-first v2 pipeline (core.Run), and every
// study streams its typed events into a bounded replay ring SSE clients
// resume from. Overload behaviour is designed in, not hoped for:
//
//   - Admission control: the queue is bounded; a full queue (or a
//     draining scheduler) sheds the submission with ErrQueueFull /
//     ErrDraining, which the HTTP layer maps to 503 + Retry-After.
//   - Per-tenant quotas: each tenant gets a bounded share of the queue
//     (shed with ErrTenantQuota -> 429) and a max-in-flight cap (queued
//     work simply waits; it is never lost).
//   - Priorities and preemption: a queued study of strictly higher
//     priority preempts the lowest-priority running study via context
//     cancellation. The warm-resume machinery makes preemption nearly
//     free: the preempted run's persisted artifacts stay consistent, the
//     job requeues, and its re-run resumes byte-identical.
//   - Per-run timeouts: RunTimeout bounds each execution attempt.
//   - Graceful drain: Drain stops admission, cancels running studies
//     (each leaves its store warm-safe), fails the queue, and waits for
//     the workers to unwind.
//
// See docs/serve.md for the HTTP surface and the SSE resume protocol.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/gaugenn/gaugenn/internal/core"
	"github.com/gaugenn/gaugenn/internal/event"
)

// Admission errors. The HTTP layer maps them onto 503/429 + Retry-After.
var (
	// ErrQueueFull sheds a submission because the global queue is at
	// capacity.
	ErrQueueFull = errors.New("sched: queue full")
	// ErrTenantQuota sheds a submission because the tenant's queue share
	// is exhausted.
	ErrTenantQuota = errors.New("sched: tenant queue share exhausted")
	// ErrDraining sheds a submission because the scheduler is shutting
	// down.
	ErrDraining = errors.New("sched: draining, not admitting work")
	// ErrUnknownJob reports an ID no submission ever returned.
	ErrUnknownJob = errors.New("sched: unknown study job")
)

// Cancellation causes, distinguishable via context.Cause so the finish
// path can tell a preemption (requeue) from a user cancel or drain
// (terminal).
var (
	errPreempted  = errors.New("sched: preempted by higher-priority study")
	errUserCancel = errors.New("sched: cancelled by client")
	errDrain      = errors.New("sched: cancelled by drain")
)

// Spec is a submitted study's parameters — the service-facing subset of
// core.Config. The zero value is invalid; Seed and Scale are required.
type Spec struct {
	Seed  int64   `json:"seed"`
	Scale float64 `json:"scale"`
	// Workers bounds the run's per-snapshot fan-out (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// FailureBudget is the per-snapshot failure tolerance
	// (see core.Config.FailureBudget; 0 = the 5% default).
	FailureBudget float64 `json:"failure_budget,omitempty"`
	// Priority orders the queue and drives preemption: 0 (default,
	// lowest) through 9. A queued study of strictly higher priority
	// preempts the lowest-priority running one.
	Priority int `json:"priority,omitempty"`
}

// MaxPriority caps Spec.Priority.
const MaxPriority = 9

// validate rejects specs the pipeline would reject later, before they
// occupy queue capacity.
func (sp Spec) validate() error {
	if sp.Scale <= 0 || sp.Scale > 1 {
		return fmt.Errorf("spec: scale must be in (0, 1] (got %g)", sp.Scale)
	}
	if sp.Priority < 0 || sp.Priority > MaxPriority {
		return fmt.Errorf("spec: priority must be in [0, %d] (got %d)", MaxPriority, sp.Priority)
	}
	if sp.Workers < 0 {
		return fmt.Errorf("spec: workers must be >= 0 (got %d)", sp.Workers)
	}
	return nil
}

// State is a job's lifecycle phase.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether a job in this state will never run again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is a point-in-time snapshot of one submission's status.
type Job struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority"`
	Spec     Spec   `json:"spec"`
	State    State  `json:"state"`
	// QueuePos is the job's position in the dispatch order (1 = next),
	// 0 when not queued.
	QueuePos int `json:"queue_pos,omitempty"`
	// Attempts counts execution starts; Preemptions counts how many of
	// those were cancelled to make room for higher-priority work.
	Attempts    int `json:"attempts"`
	Preemptions int `json:"preemptions"`
	// StudyID is the persisted study's manifest identity once the run
	// completed.
	StudyID string `json:"study_id,omitempty"`
	Err     string `json:"error,omitempty"`
}

// Config tunes a Scheduler. The zero value runs with service-shaped
// bounds: every bound left at or below zero takes the default its field
// names.
type Config struct {
	// CacheDir backs every run with one shared persistent store: runs
	// dedupe work across submissions, and a preempted run resumes warm.
	// Empty disables persistence (preemption then recomputes).
	CacheDir string
	// MaxWorkers bounds concurrently executing studies (<= 0: 2).
	MaxWorkers int
	// MaxQueue bounds queued (not yet running) studies (<= 0: 16).
	MaxQueue int
	// TenantQueueShare bounds one tenant's queued studies
	// (<= 0: max(1, MaxQueue/4)).
	TenantQueueShare int
	// TenantMaxInFlight bounds one tenant's concurrently running studies
	// (<= 0: max(1, MaxWorkers/2)). Queued work over the cap waits.
	TenantMaxInFlight int
	// RunTimeout bounds each execution attempt (0 = none). A timed-out
	// run fails terminally.
	RunTimeout time.Duration
	// RingSize bounds each study's event replay ring (<= 0: 4096).
	RingSize int
	// RetryAfter is the backoff hint attached to shed submissions
	// (<= 0: 2s).
	RetryAfter time.Duration
	// Run executes one study; nil uses core.Run. Tests interpose
	// controllable fakes here.
	Run func(ctx context.Context, cfg core.Config) (*core.StudyResult, error)
}

func (c Config) maxWorkers() int {
	if c.MaxWorkers <= 0 {
		return 2
	}
	return c.MaxWorkers
}

func (c Config) maxQueue() int {
	if c.MaxQueue <= 0 {
		return 16
	}
	return c.MaxQueue
}

func (c Config) tenantQueueShare() int {
	if c.TenantQueueShare > 0 {
		return c.TenantQueueShare
	}
	return max(1, c.maxQueue()/4)
}

func (c Config) tenantMaxInFlight() int {
	if c.TenantMaxInFlight > 0 {
		return c.TenantMaxInFlight
	}
	return max(1, c.maxWorkers()/2)
}

func (c Config) ringSize() int {
	if c.RingSize > 0 {
		return c.RingSize
	}
	return 4096
}

// RetryAfterHint is the backoff the scheduler suggests to shed clients.
func (c Config) RetryAfterHint() time.Duration {
	if c.RetryAfter > 0 {
		return c.RetryAfter
	}
	return 2 * time.Second
}

// job is the scheduler's mutable record of one submission. All fields
// are guarded by Scheduler.mu except ring (internally synchronised) and
// done (closed exactly once under mu).
type job struct {
	id        string
	seq       int // admission order; FIFO tiebreak within a priority
	tenant    string
	spec      Spec
	state     State
	ring      *Ring
	submitted time.Time
	cancel    context.CancelCauseFunc // non-nil while running
	attempts  int
	preempts  int
	// preempting marks a running job already asked to vacate its slot.
	preempting bool
	// userCancelled marks a DELETE: the next finish is terminal even if
	// the cause looks like a preemption race.
	userCancelled bool
	studyID       string
	err           error
	done          chan struct{} // closed on terminal state
}

// Scheduler owns the queue, the worker slots, and every job's lifecycle.
type Scheduler struct {
	cfg Config

	mu            sync.Mutex
	jobs          map[string]*job
	queue         []*job // dispatch order: priority desc, admission seq asc
	running       map[string]*job
	tenantQueued  map[string]int
	tenantRunning map[string]int
	draining      bool
	nextSeq       int

	wg sync.WaitGroup // one per executing run
}

// New builds a scheduler; Drain it before discarding.
func New(cfg Config) *Scheduler {
	return &Scheduler{
		cfg:           cfg,
		jobs:          map[string]*job{},
		running:       map[string]*job{},
		tenantQueued:  map[string]int{},
		tenantRunning: map[string]int{},
	}
}

// Config returns the scheduler's resolved configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Submit admits one study for tenant, returning its job snapshot. Shed
// submissions fail with ErrQueueFull, ErrTenantQuota or ErrDraining;
// invalid specs fail before consuming queue capacity.
func (s *Scheduler) Submit(spec Spec, tenant string) (Job, error) {
	if err := spec.validate(); err != nil {
		return Job{}, err
	}
	if tenant == "" {
		tenant = "anon"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		metShedDraining.Inc()
		return Job{}, ErrDraining
	}
	if len(s.queue) >= s.cfg.maxQueue() {
		metShedQueueFull.Inc()
		return Job{}, ErrQueueFull
	}
	if s.tenantQueued[tenant] >= s.cfg.tenantQueueShare() {
		metShedTenant.Inc()
		return Job{}, ErrTenantQuota
	}
	s.nextSeq++
	j := &job{
		id:        fmt.Sprintf("j%d-seed%d-scale%g", s.nextSeq, spec.Seed, spec.Scale),
		seq:       s.nextSeq,
		tenant:    tenant,
		spec:      spec,
		state:     StateQueued,
		ring:      NewRing(s.cfg.ringSize()),
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.enqueue(j)
	s.tenantQueued[tenant]++
	metSubmitted.Inc()
	j.ring.Publish(stateEvent(StateQueued, ""))
	s.dispatch()
	return s.snapshot(j), nil
}

// stateEvent synthesises a lifecycle wire event with a fresh stamp, so
// resume cursors order it against pipeline events.
func stateEvent(st State, detail string) WireEvent {
	return WireEvent{Seq: event.Now().Seq, Type: TypeState, State: string(st), Err: detail}
}

// enqueue inserts j by (priority desc, seq asc). Callers hold s.mu.
func (s *Scheduler) enqueue(j *job) {
	i := sort.Search(len(s.queue), func(i int) bool {
		q := s.queue[i]
		if q.spec.Priority != j.spec.Priority {
			return q.spec.Priority < j.spec.Priority
		}
		return q.seq > j.seq
	})
	s.queue = append(s.queue, nil)
	copy(s.queue[i+1:], s.queue[i:])
	s.queue[i] = j
	metQueueDepth.SetInt(int64(len(s.queue)))
}

// dequeueAt removes index i from the queue. Callers hold s.mu.
func (s *Scheduler) dequeueAt(i int) *job {
	j := s.queue[i]
	copy(s.queue[i:], s.queue[i+1:])
	s.queue = s.queue[:len(s.queue)-1]
	metQueueDepth.SetInt(int64(len(s.queue)))
	return j
}

// dispatch fills free worker slots with the highest-priority eligible
// queued jobs, and — when slots are full — preempts the lowest-priority
// running job if a strictly higher-priority one is waiting. Callers hold
// s.mu.
func (s *Scheduler) dispatch() {
	for len(s.running) < s.cfg.maxWorkers() {
		i := s.nextEligible()
		if i < 0 {
			break
		}
		s.start(s.dequeueAt(i))
	}
	if len(s.queue) == 0 || len(s.running) < s.cfg.maxWorkers() {
		return
	}
	// Slots full with work waiting: preempt if the wait is unjust. A
	// waiter whose tenant is at its in-flight cap still preempts a victim
	// of its own tenant — the eviction frees the tenant slot it needs.
	victim := s.preemptionVictim()
	if victim == nil {
		return
	}
	for _, j := range s.queue {
		if j.spec.Priority <= victim.spec.Priority {
			break // queue is priority-ordered: nothing better follows
		}
		if s.tenantRunning[j.tenant] < s.cfg.tenantMaxInFlight() || j.tenant == victim.tenant {
			victim.preempting = true
			metPreemptions.Inc()
			victim.cancel(errPreempted)
			return
		}
	}
}

// nextEligible returns the queue index of the best dispatchable job
// (highest priority whose tenant is under its in-flight cap), or -1.
// Callers hold s.mu.
func (s *Scheduler) nextEligible() int {
	for i, j := range s.queue {
		if s.tenantRunning[j.tenant] < s.cfg.tenantMaxInFlight() {
			return i
		}
	}
	return -1
}

// preemptionVictim picks the running job to evict: lowest priority,
// most-recently started among ties (least sunk work), skipping jobs
// already preempting. Callers hold s.mu.
func (s *Scheduler) preemptionVictim() *job {
	var victim *job
	for _, j := range s.running {
		if j.preempting {
			continue
		}
		if victim == nil ||
			j.spec.Priority < victim.spec.Priority ||
			(j.spec.Priority == victim.spec.Priority && j.seq > victim.seq) {
			victim = j
		}
	}
	return victim
}

// start moves j into a worker slot. Callers hold s.mu.
func (s *Scheduler) start(j *job) {
	j.state = StateRunning
	j.attempts++
	s.running[j.id] = j
	s.tenantRunning[j.tenant]++
	if s.tenantQueued[j.tenant] > 0 {
		s.tenantQueued[j.tenant]--
	}
	metRunning.SetInt(int64(len(s.running)))
	metQueueWait.ObserveDuration(time.Since(j.submitted))
	ctx, cancel := context.WithCancelCause(context.Background())
	j.cancel = cancel
	j.ring.Publish(stateEvent(StateRunning, ""))
	s.wg.Add(1)
	go s.execute(ctx, j)
}

// execute runs one attempt of j outside the lock.
func (s *Scheduler) execute(ctx context.Context, j *job) {
	defer s.wg.Done()
	runCtx := ctx
	var cancelTimeout context.CancelFunc
	if s.cfg.RunTimeout > 0 {
		runCtx, cancelTimeout = context.WithTimeout(ctx, s.cfg.RunTimeout)
		defer cancelTimeout()
	}
	run := s.cfg.Run
	if run == nil {
		run = core.Run
	}
	res, err := run(runCtx, s.coreConfig(j))
	s.finish(j, res, err, context.Cause(ctx))
}

// coreConfig derives one run's pipeline configuration from its spec and
// the scheduler's store. Graphs are not kept in memory: the service
// answers from persisted corpora, and resident graph weights would make
// worker memory proportional to corpus size.
func (s *Scheduler) coreConfig(j *job) core.Config {
	cfg := core.DefaultConfig(j.spec.Seed, j.spec.Scale)
	cfg.UseHTTP = false
	cfg.KeepGraphs = false
	cfg.Workers = j.spec.Workers
	cfg.FailureBudget = j.spec.FailureBudget
	cfg.CacheDir = s.cfg.CacheDir
	cfg.Resume = true
	ring := j.ring
	cfg.OnEvent = ring.PublishEvent
	return cfg
}

// finish records one attempt's outcome: success and plain failure are
// terminal, a preemption requeues, a user cancel or drain terminates as
// cancelled. cause is the job context's cancellation cause (nil when the
// run ended on its own).
func (s *Scheduler) finish(j *job, res *core.StudyResult, err error, cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.running, j.id)
	if s.tenantRunning[j.tenant] > 0 {
		s.tenantRunning[j.tenant]--
	}
	metRunning.SetInt(int64(len(s.running)))
	j.cancel = nil
	j.preempting = false
	switch {
	case err == nil:
		j.state = StateDone
		if res != nil && res.Persist != nil {
			j.studyID = res.Persist.StudyID
		}
		metCompleted.Inc()
		j.ring.Close(endEvent(StateDone, "", j.studyID))
		close(j.done)
	case errors.Is(cause, errPreempted):
		if j.userCancelled || s.draining {
			// The client cancelled (or the service is draining) while the
			// preemption unwound: terminal either way.
			j.state = StateCancelled
			j.err = err
			metCancelled.Inc()
			j.ring.Close(endEvent(StateCancelled, err.Error(), ""))
			close(j.done)
			break
		}
		j.state = StateQueued
		j.preempts++
		j.submitted = time.Now()
		s.enqueue(j)
		s.tenantQueued[j.tenant]++
		j.ring.Publish(stateEvent(StateQueued, "preempted; will resume warm"))
	case errors.Is(cause, errUserCancel), errors.Is(cause, errDrain):
		j.state = StateCancelled
		j.err = err
		metCancelled.Inc()
		j.ring.Close(endEvent(StateCancelled, err.Error(), ""))
		close(j.done)
	default:
		j.state = StateFailed
		j.err = err
		metFailed.Inc()
		j.ring.Close(endEvent(StateFailed, err.Error(), ""))
		close(j.done)
	}
	s.dispatch()
}

// endEvent synthesises the terminal wire event.
func endEvent(st State, detail, studyID string) WireEvent {
	return WireEvent{Seq: event.Now().Seq, Type: TypeEnd, State: string(st), Err: detail, StudyID: studyID}
}

// Cancel stops a job: a queued one terminates immediately, a running one
// is cancelled (its run unwinds promptly and the store stays warm-safe).
// Cancelling a terminal job is a no-op.
func (s *Scheduler) Cancel(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, ErrUnknownJob
	}
	switch j.state {
	case StateQueued:
		for i, q := range s.queue {
			if q == j {
				s.dequeueAt(i)
				break
			}
		}
		if s.tenantQueued[j.tenant] > 0 {
			s.tenantQueued[j.tenant]--
		}
		j.state = StateCancelled
		j.err = errUserCancel
		metCancelled.Inc()
		j.ring.Close(endEvent(StateCancelled, errUserCancel.Error(), ""))
		close(j.done)
		s.dispatch()
	case StateRunning:
		j.userCancelled = true
		j.cancel(errUserCancel)
	}
	return s.snapshot(j), nil
}

// Job returns a point-in-time snapshot of one submission.
func (s *Scheduler) Job(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, ErrUnknownJob
	}
	return s.snapshot(j), nil
}

// Jobs lists every submission, dispatch-ordered queue first, then
// running, then terminal jobs in admission order.
func (s *Scheduler) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.queue {
		out = append(out, s.snapshot(j))
	}
	rest := make([]*job, 0, len(s.jobs)-len(s.queue))
	for _, j := range s.jobs {
		if j.state != StateQueued {
			rest = append(rest, j)
		}
	}
	sort.Slice(rest, func(a, b int) bool {
		if (rest[a].state == StateRunning) != (rest[b].state == StateRunning) {
			return rest[a].state == StateRunning
		}
		return rest[a].seq < rest[b].seq
	})
	for _, j := range rest {
		out = append(out, s.snapshot(j))
	}
	return out
}

// Ring exposes a job's event ring for streaming.
func (s *Scheduler) Ring(id string) (*Ring, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return j.ring, nil
}

// Wait blocks until the job reaches a terminal state or ctx dies.
func (s *Scheduler) Wait(ctx context.Context, id string) (Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Job{}, ErrUnknownJob
	}
	select {
	case <-j.done:
		return s.Job(id)
	case <-ctx.Done():
		return Job{}, ctx.Err()
	}
}

// snapshot renders j's public view. Callers hold s.mu.
func (s *Scheduler) snapshot(j *job) Job {
	out := Job{
		ID:          j.id,
		Tenant:      j.tenant,
		Priority:    j.spec.Priority,
		Spec:        j.spec,
		State:       j.state,
		Attempts:    j.attempts,
		Preemptions: j.preempts,
		StudyID:     j.studyID,
	}
	if j.err != nil {
		out.Err = j.err.Error()
	}
	if j.state == StateQueued {
		for i, q := range s.queue {
			if q == j {
				out.QueuePos = i + 1
				break
			}
		}
	}
	return out
}

// Draining reports whether admission has stopped.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain shuts the scheduler down gracefully: admission stops (further
// Submits shed with ErrDraining), queued jobs terminate cancelled,
// running jobs are cancelled — each run unwinds through the pipeline's
// cancellation path, leaving its persisted artifacts warm-safe — and
// Drain waits for every worker to return, or for ctx to expire.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, j := range s.queue {
			j.state = StateCancelled
			j.err = errDrain
			if s.tenantQueued[j.tenant] > 0 {
				s.tenantQueued[j.tenant]--
			}
			metCancelled.Inc()
			j.ring.Close(endEvent(StateCancelled, errDrain.Error(), ""))
			close(j.done)
		}
		s.queue = nil
		metQueueDepth.SetInt(0)
		for _, j := range s.running {
			j.cancel(errDrain)
		}
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("sched: drain interrupted with runs still unwinding: %w", ctx.Err())
	}
}

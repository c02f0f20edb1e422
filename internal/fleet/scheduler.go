package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"github.com/gaugenn/gaugenn/internal/bench"
	"github.com/gaugenn/gaugenn/internal/errs"
	"github.com/gaugenn/gaugenn/internal/event"
	"github.com/gaugenn/gaugenn/internal/obs"
	"github.com/gaugenn/gaugenn/internal/retry"
)

// NoDeviceError reports a matrix device model with no runner in the pool.
// It matches the errs.ErrNoDevice sentinel under errors.Is.
type NoDeviceError struct {
	Device string
}

func (e *NoDeviceError) Error() string {
	return fmt.Sprintf("fleet: no runner in pool serves device model %s", e.Device)
}

// Is matches the typed error against the public sentinel.
func (e *NoDeviceError) Is(target error) bool { return target == errs.ErrNoDevice }

// ExhaustedError reports a job whose every scheduling attempt failed at
// the transport level: each tried runner was excluded in turn until no
// eligible device of the model remained (or the attempt cap was hit).
// It matches the errs.ErrExhausted sentinel under errors.Is.
type ExhaustedError struct {
	JobID    string
	Device   string
	Attempts int
	Tried    []string // runner IDs in attempt order
	Last     error
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("fleet: job %s exhausted %d attempt(s) on %s runners [%s]: %v",
		e.JobID, e.Attempts, e.Device, strings.Join(e.Tried, " "), e.Last)
}

func (e *ExhaustedError) Unwrap() error { return e.Last }

// Is matches the typed error against the public sentinel.
func (e *ExhaustedError) Is(target error) bool { return target == errs.ErrExhausted }

// Config tunes one Pool.Run.
type Config struct {
	// Retry paces a runner after transport failures: before its next
	// claim the worker sleeps the policy's backoff for its consecutive
	// failure count (ctx-aware), so a glitching rig stops hammering its
	// device. Its Attempts caps scheduling attempts per job. Nil retries
	// immediately, once per runner of the job's device model.
	Retry *retry.Policy
	// NoCooldown skips thermal pacing before each job. The default
	// (pacing on) cools the device to CooldownTargetJ so within-job
	// throttling is measured deliberately, not inherited from the queue.
	NoCooldown bool
	// CooldownTargetJ is the stored-heat target of the pre-job cooldown
	// (0 = fully cold, the deterministic baseline).
	CooldownTargetJ float64
	// OnUnit, when non-nil, streams each unit result as it completes
	// (including skipped cells). Called from runner goroutines.
	OnUnit func(UnitResult)
	// OnEvent, when non-nil, receives the run's typed progress stream —
	// one StageStart/StageProgress/StageDone sequence under the "fleet"
	// stage, counting every matrix cell (skipped cells included). Called
	// from runner goroutines; handlers must be safe for concurrent use.
	OnEvent func(event.Event)
}

// UnitResult is the outcome of one matrix cell.
type UnitResult struct {
	Unit   Unit
	Result bench.JobResult
	// Runner and Attempts describe scheduling (which rig served the cell,
	// after how many tries); they never reach the deterministic output.
	Runner   string
	Attempts int
	// Err is a transport-level failure after retries (*ExhaustedError);
	// in-job failures stay in Result.Error, as the bench layer reports
	// them.
	Err error
}

// Pool is a set of runners the scheduler dispatches onto, grouped by the
// device model they serve.
type Pool struct {
	runners []Runner
	byModel map[string][]Runner
}

// NewPool groups runners by device model. Runner IDs must be unique.
func NewPool(runners ...Runner) (*Pool, error) {
	if len(runners) == 0 {
		return nil, fmt.Errorf("fleet: pool needs at least one runner")
	}
	p := &Pool{byModel: map[string][]Runner{}}
	seen := map[string]bool{}
	for _, r := range runners {
		if seen[r.ID()] {
			return nil, fmt.Errorf("fleet: duplicate runner id %q", r.ID())
		}
		seen[r.ID()] = true
		p.runners = append(p.runners, r)
		p.byModel[r.DeviceModel()] = append(p.byModel[r.DeviceModel()], r)
	}
	return p, nil
}

// NewLocalPool builds an in-process pool with `replicas` rigs per device
// model — the multi-device lab in one process. Runner IDs are "<model>#i".
// replicas must be positive: a caller wanting a remote-only pool must not
// get silently handed local simulated rigs instead.
func NewLocalPool(deviceModels []string, replicas int) (*Pool, error) {
	if replicas <= 0 {
		return nil, fmt.Errorf("fleet: local pool needs a positive replica count, got %d", replicas)
	}
	var runners []Runner
	fail := func(err error) (*Pool, error) {
		for _, r := range runners {
			r.Close()
		}
		return nil, err
	}
	for _, model := range deviceModels {
		for i := 0; i < replicas; i++ {
			r, err := NewLocalRunner(fmt.Sprintf("%s#%d", model, i), model)
			if err != nil {
				return fail(err)
			}
			runners = append(runners, r)
		}
	}
	p, err := NewPool(runners...)
	if err != nil {
		return fail(err)
	}
	return p, nil
}

// Runners lists the pool members.
func (p *Pool) Runners() []Runner { return p.runners }

// Close shuts down every runner.
func (p *Pool) Close() error {
	var first error
	for _, r := range p.runners {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// unit scheduling states.
const (
	statePending = iota
	stateRunning
	stateDone
)

type unitState struct {
	unit     Unit
	state    int
	excluded map[string]bool
	tried    []string
	attempts int
}

// schedQueue holds the per-device-model pending lists. All transitions
// happen under mu; cond wakes runners when work may have become eligible.
type schedQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	byModel map[string][]*unitState
	depth   map[string]*obs.Gauge // pending units per device model
}

func newSchedQueue(units []Unit) *schedQueue {
	q := &schedQueue{byModel: map[string][]*unitState{}, depth: map[string]*obs.Gauge{}}
	q.cond = sync.NewCond(&q.mu)
	for _, u := range units {
		if u.Skip != "" {
			continue
		}
		q.byModel[u.Device] = append(q.byModel[u.Device], &unitState{
			unit:     u,
			excluded: map[string]bool{},
		})
	}
	for model, sts := range q.byModel {
		g := queueDepthGauge(model)
		g.SetInt(int64(len(sts)))
		q.depth[model] = g
	}
	return q
}

// claim hands the runner the lowest-index pending unit of its device model
// that has not excluded it, blocking while a running unit might still fail
// back into its feed; nil means the runner can never be useful again —
// its feed drained, or the run's context was cancelled (a watcher
// broadcasts the cond on cancellation, so blocked claims re-check).
func (q *schedQueue) claim(ctx context.Context, runnerID, deviceModel string) *unitState {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return nil
		}
		var mayGetWork bool
		for _, st := range q.byModel[deviceModel] {
			if st.excluded[runnerID] {
				continue
			}
			switch st.state {
			case statePending:
				st.state = stateRunning
				st.attempts++
				st.tried = append(st.tried, runnerID)
				q.depth[deviceModel].Dec()
				return st
			case stateRunning:
				// Might fail on its current runner and requeue for us.
				mayGetWork = true
			}
		}
		if !mayGetWork {
			return nil
		}
		q.cond.Wait()
	}
}

// complete finalises a successfully served unit.
func (q *schedQueue) complete(st *unitState) {
	q.mu.Lock()
	st.state = stateDone
	q.mu.Unlock()
	metUnits.Inc()
	q.cond.Broadcast()
}

// requeue returns a claimed unit to pending without excluding the runner
// — used when a serve was aborted by cancellation rather than by a rig
// fault. The attempt is uncounted, so cancellation never eats into a
// unit's retry budget.
func (q *schedQueue) requeue(st *unitState, runnerID string) {
	q.mu.Lock()
	st.state = statePending
	q.depth[st.unit.Device].Inc()
	metRequeues.Inc()
	st.attempts--
	if n := len(st.tried); n > 0 && st.tried[n-1] == runnerID {
		st.tried = st.tried[:n-1]
	}
	q.mu.Unlock()
	q.cond.Broadcast()
}

// fail records a transport failure, excluding the runner. The unit
// requeues while eligible runners and attempts remain; otherwise it
// finishes with an ExhaustedError, returned for aggregation.
func (q *schedQueue) fail(st *unitState, runnerID string, err error, eligible []Runner, maxAttempts int) *ExhaustedError {
	q.mu.Lock()
	defer func() {
		q.mu.Unlock()
		q.cond.Broadcast()
	}()
	st.excluded[runnerID] = true
	remaining := 0
	for _, r := range eligible {
		if !st.excluded[r.ID()] {
			remaining++
		}
	}
	if remaining > 0 && (maxAttempts <= 0 || st.attempts < maxAttempts) {
		st.state = statePending
		q.depth[st.unit.Device].Inc()
		metRequeues.Inc()
		return nil
	}
	st.state = stateDone
	metExhausted.Inc()
	return &ExhaustedError{
		JobID:    st.unit.Job.ID,
		Device:   st.unit.Device,
		Attempts: st.attempts,
		Tried:    append([]string(nil), st.tried...),
		Last:     err,
	}
}

// Run expands the matrix and executes it across the pool: per-device
// serialized queues, thermal pacing before each job, transport-failure
// retries with device exclusion, streaming aggregation. On a run that
// wasn't cancelled, the returned aggregator holds every unit (including
// skipped and exhausted cells); a cancelled run's aggregator is partial —
// units left unserved by the drain (including ones requeued by a
// cancelled in-flight serve) never reach it. The error joins matrix-level
// problems and per-unit ExhaustedErrors, so errors.As surfaces typed
// failures (and errors.Is matches the errs.ErrExhausted /
// errs.ErrNoDevice sentinels).
//
// ctx bounds the whole sweep: cancellation stops claiming new cells,
// aborts in-flight rig choreography, and Run returns the partial
// aggregator together with a *errs.StageError (stage "fleet") wrapping
// the context error — errors.Is(err, errs.ErrCancelled) holds.
func (p *Pool) Run(ctx context.Context, m Matrix, cfg Config) (*Aggregator, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	units, err := m.Expand()
	if err != nil {
		return nil, err
	}
	for _, d := range m.Devices {
		if len(p.byModel[d]) == 0 {
			return nil, &NoDeviceError{Device: d}
		}
	}
	agg := NewAggregator(m)
	var (
		emitMu sync.Mutex
		done   int
	)
	if cfg.OnEvent != nil {
		cfg.OnEvent(event.Stamped(event.StageStart{Stage: "fleet", Total: len(units)}))
	}
	emit := func(ur UnitResult) {
		agg.Add(ur)
		if cfg.OnUnit != nil {
			cfg.OnUnit(ur)
		}
		if cfg.OnEvent != nil {
			emitMu.Lock()
			done++
			if ur.Result.OutputDigest != "" {
				cfg.OnEvent(event.Stamped(event.ExecUnit{
					Model:         ur.Unit.Model,
					Device:        ur.Unit.Device,
					Backend:       ur.Unit.Backend,
					OutputDigest:  ur.Result.OutputDigest,
					MeanLatencyNS: int64(ur.Result.MeanLatency()),
				}))
			}
			cfg.OnEvent(event.Stamped(event.StageProgress{Stage: "fleet", Done: done, Total: len(units)}))
			if done == len(units) {
				cfg.OnEvent(event.Stamped(event.StageDone{Stage: "fleet", Total: len(units)}))
			}
			emitMu.Unlock()
		}
	}
	for _, u := range units {
		if u.Skip != "" {
			emit(UnitResult{Unit: u})
		}
	}
	q := newSchedQueue(units)
	// Wake blocked claims when the context dies so workers drain instead
	// of waiting for a requeue that will never come.
	stopWatch := context.AfterFunc(ctx, func() { q.cond.Broadcast() })
	defer stopWatch()
	// The retry policy both paces a failing runner and caps each unit's
	// scheduling attempts (<= 0: one attempt per eligible runner).
	var pacing retry.Policy
	if cfg.Retry != nil {
		pacing = *cfg.Retry
	}
	maxAttempts := pacing.Attempts
	var wg sync.WaitGroup
	for _, r := range p.runners {
		wg.Add(1)
		go func(r Runner) {
			defer wg.Done()
			consecFails := 0
			for {
				st := q.claim(ctx, r.ID(), r.DeviceModel())
				if st == nil {
					return
				}
				res, err := p.serve(ctx, r, st.unit, cfg)
				if err != nil {
					// Only a *run-level* cancellation takes the abandon
					// path — gated on ctx.Err(), not on the error's shape:
					// a dead agent's dial timeout also satisfies
					// errors.Is(err, context.DeadlineExceeded) (stdlib
					// net.timeoutError), and that is a rig fault that must
					// go through the exclude/retry machinery below.
					if ctx.Err() != nil && errs.IsContextError(err) {
						// A cancelled serve is not the rig's fault: requeue
						// the unit untried (it stays unserved — the queue is
						// draining) and let this worker exit.
						q.requeue(st, r.ID())
						return
					}
					if ex := q.fail(st, r.ID(), err, p.byModel[r.DeviceModel()], maxAttempts); ex != nil {
						emit(UnitResult{Unit: st.unit, Runner: r.ID(), Attempts: ex.Attempts, Err: ex})
					}
					// Pace before the next claim: a glitching rig backs off
					// instead of immediately re-hammering its device.
					consecFails++
					if d := pacing.Delay(consecFails); d > 0 {
						if retry.Sleep(ctx, d) != nil {
							return
						}
					}
					continue
				}
				consecFails = 0
				ur := UnitResult{Unit: st.unit, Result: res, Runner: r.ID(), Attempts: st.attempts}
				q.complete(st)
				emit(ur)
			}
		}(r)
	}
	wg.Wait()
	var problems []error
	for _, ur := range agg.Units() {
		if ur.Err != nil {
			problems = append(problems, ur.Err)
		}
	}
	if err := ctx.Err(); err != nil {
		problems = append(problems, errs.Stage("fleet", "", err))
	}
	return agg, errors.Join(problems...)
}

// serve runs one unit on one rig: thermal pacing, then the full workflow.
func (p *Pool) serve(ctx context.Context, r Runner, u Unit, cfg Config) (bench.JobResult, error) {
	if !cfg.NoCooldown {
		metCooldowns.Inc()
		if err := r.Cooldown(ctx, cfg.CooldownTargetJ); err != nil {
			return bench.JobResult{}, fmt.Errorf("cooldown: %w", err)
		}
	}
	return r.Run(ctx, u.Job)
}

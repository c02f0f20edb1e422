package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/gaugenn/gaugenn/internal/bench"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
	"github.com/gaugenn/gaugenn/internal/power"
	"github.com/gaugenn/gaugenn/internal/retry"
	"github.com/gaugenn/gaugenn/internal/soc"
)

// fakeRunner executes jobs in-process (no TCP choreography) and can be
// told to fail at the transport level — the crash-mid-job cases the
// scheduler must survive.
type fakeRunner struct {
	id    string
	model string
	dev   *soc.Device
	agent *bench.Agent

	mu            sync.Mutex
	calls         int
	failRemaining int // -1: always fail
}

func newFakeRunner(t *testing.T, id, model string, failRemaining int) *fakeRunner {
	t.Helper()
	dev, err := soc.NewDevice(model)
	if err != nil {
		t.Fatal(err)
	}
	return &fakeRunner{
		id: id, model: model, dev: dev,
		agent:         bench.NewAgent(dev, nil, power.NewMonitor()),
		failRemaining: failRemaining,
	}
}

func (r *fakeRunner) ID() string          { return r.id }
func (r *fakeRunner) DeviceModel() string { return r.model }
func (r *fakeRunner) Close() error        { return nil }

func (r *fakeRunner) Cooldown(ctx context.Context, targetJ float64) error {
	env := r.dev.Envelope()
	if dt := r.dev.Thermal.CooldownNeeded(env, targetJ); dt > 0 {
		r.dev.Idle(dt, true, nil)
	}
	return nil
}

func (r *fakeRunner) Run(ctx context.Context, job bench.Job) (bench.JobResult, error) {
	r.mu.Lock()
	r.calls++
	fail := r.failRemaining != 0
	if r.failRemaining > 0 {
		r.failRemaining--
	}
	r.mu.Unlock()
	if fail {
		return bench.JobResult{}, fmt.Errorf("agent %s crashed mid-job", r.id)
	}
	return r.agent.ExecuteJob(job), nil
}

func failureMatrix(t *testing.T, device string) Matrix {
	t.Helper()
	var models []ModelSpec
	for i, task := range []zoo.Task{zoo.TaskKeywordDetection, zoo.TaskCrashDetection} {
		ms, err := ZooModel(zoo.Spec{Task: task, Seed: int64(30 + i)})
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, ms)
	}
	return Matrix{
		Models:   models,
		Devices:  []string{device},
		Backends: []string{"cpu"},
		Threads:  4,
		Warmup:   1,
		Runs:     2,
	}
}

func TestCrashMidJobRequeuesOnAnotherDevice(t *testing.T) {
	bad := newFakeRunner(t, "bad", "Q845", -1)
	good := newFakeRunner(t, "good", "Q845", 0)
	pool, err := NewPool(bad, good)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := pool.Run(context.Background(), failureMatrix(t, "Q845"), Config{})
	if err != nil {
		t.Fatalf("healthy replica must absorb the crashes: %v", err)
	}
	retried := 0
	for _, ur := range agg.Units() {
		if ur.Err != nil || ur.Result.Error != "" {
			t.Fatalf("unit %s did not recover: %v %q", ur.Unit.Job.ID, ur.Err, ur.Result.Error)
		}
		if ur.Runner != "good" {
			t.Fatalf("unit %s served by %s, want the healthy replica", ur.Unit.Job.ID, ur.Runner)
		}
		if ur.Attempts > 1 {
			retried++
			if ur.Attempts != 2 {
				t.Fatalf("unit %s took %d attempts", ur.Unit.Job.ID, ur.Attempts)
			}
		}
	}
	if bad.calls > 0 && retried == 0 {
		t.Fatal("crashing runner claimed jobs but nothing recorded a retry")
	}
}

func TestTransientCrashRecoversOnSameDevice(t *testing.T) {
	// A single flaky rig (fails once, then works): the job requeues and,
	// with nobody else eligible... is exhausted. With the attempt cap
	// allowing a second try on a second rig, the retry lands there.
	flaky := newFakeRunner(t, "flaky", "Q855", 1)
	backup := newFakeRunner(t, "backup", "Q855", 0)
	pool, err := NewPool(flaky, backup)
	if err != nil {
		t.Fatal(err)
	}
	m := failureMatrix(t, "Q855")
	m.Models = m.Models[:1]
	agg, err := pool.Run(context.Background(), m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ur := agg.Units()[0]
	if ur.Err != nil || ur.Result.Error != "" {
		t.Fatalf("did not recover: %v %q", ur.Err, ur.Result.Error)
	}
}

func TestExhaustedRetriesSurfaceTypedError(t *testing.T) {
	bad1 := newFakeRunner(t, "bad1", "Q845", -1)
	bad2 := newFakeRunner(t, "bad2", "Q845", -1)
	pool, err := NewPool(bad1, bad2)
	if err != nil {
		t.Fatal(err)
	}
	m := failureMatrix(t, "Q845")
	m.Models = m.Models[:1]
	agg, err := pool.Run(context.Background(), m, Config{})
	if err == nil {
		t.Fatal("all-runners-dead must error")
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("want *ExhaustedError, got %T: %v", err, err)
	}
	if ex.Device != "Q845" || ex.Attempts != 2 || len(ex.Tried) != 2 {
		t.Fatalf("exhausted detail: %+v", ex)
	}
	if ex.Unwrap() == nil {
		t.Fatal("exhausted error must carry the last transport error")
	}
	// The aggregator still accounts for the cell.
	failed := agg.FailedUnits()
	if len(failed) != 1 || failed[0].Err == nil {
		t.Fatalf("failed units = %+v", failed)
	}
	// The JSON records the failure without breaking the file.
	if _, jerr := agg.ResultsJSON(); jerr != nil {
		t.Fatal(jerr)
	}
}

func TestFailedRunsStayByteIdenticalAcrossPoolSizes(t *testing.T) {
	// Exhausted cells must not leak runner IDs or attempt counts into the
	// results file: an all-dead run aggregates identically whether one or
	// three rigs failed the job.
	m := failureMatrix(t, "Q845")
	runDead := func(n int) []byte {
		var runners []Runner
		for i := 0; i < n; i++ {
			runners = append(runners, newFakeRunner(t, fmt.Sprintf("dead%d", i), "Q845", -1))
		}
		pool, err := NewPool(runners...)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := pool.Run(context.Background(), m, Config{})
		if err == nil {
			t.Fatal("all-dead pool must error")
		}
		js, err := agg.ResultsJSON()
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	if string(runDead(1)) != string(runDead(3)) {
		t.Fatal("failure-path results JSON depends on pool size")
	}
}

func TestRetryAttemptsCapFailover(t *testing.T) {
	// Four dead rigs would allow four fail-overs; the policy stops at two.
	runners := make([]Runner, 4)
	for i := range runners {
		runners[i] = newFakeRunner(t, fmt.Sprintf("bad%d", i), "Q845", -1)
	}
	pool, err := NewPool(runners...)
	if err != nil {
		t.Fatal(err)
	}
	m := failureMatrix(t, "Q845")
	m.Models = m.Models[:1]
	_, err = pool.Run(context.Background(), m, Config{Retry: &retry.Policy{Attempts: 2}})
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("want *ExhaustedError, got %v", err)
	}
	if ex.Attempts != 2 {
		t.Fatalf("attempts = %d, want the Retry.Attempts cap of 2", ex.Attempts)
	}
}

func TestNoDeviceInPoolSurfacesTypedError(t *testing.T) {
	good := newFakeRunner(t, "good", "Q845", 0)
	pool, err := NewPool(good)
	if err != nil {
		t.Fatal(err)
	}
	_, err = pool.Run(context.Background(), failureMatrix(t, "Q855"), Config{})
	var nd *NoDeviceError
	if !errors.As(err, &nd) {
		t.Fatalf("want *NoDeviceError, got %v", err)
	}
	if nd.Device != "Q855" {
		t.Fatalf("device = %s", nd.Device)
	}
}

func TestInJobErrorsAreResultsNotRetries(t *testing.T) {
	// SNPE on a non-Qualcomm device fails inside the agent: that is a
	// measurement outcome, not a transport crash, so it must not requeue.
	good := newFakeRunner(t, "good", "A20", 0)
	pool, err := NewPool(good)
	if err != nil {
		t.Fatal(err)
	}
	m := failureMatrix(t, "A20")
	m.Models = m.Models[:1]
	// Force-build a unit whose backend the expansion would have skipped:
	// feed the job directly through the scheduler path via a matrix whose
	// backend is feasible, then check a garbage model instead.
	m.Models[0].Data = []byte("not a model")
	agg, err := pool.Run(context.Background(), m, Config{})
	if err != nil {
		t.Fatalf("in-job failure must not surface as scheduler error: %v", err)
	}
	ur := agg.Units()[0]
	if ur.Err != nil {
		t.Fatalf("transport error recorded for in-job failure: %v", ur.Err)
	}
	if ur.Result.Error == "" || ur.Attempts != 1 {
		t.Fatalf("want single-attempt in-job error, got %+v", ur)
	}
}

func TestPoolRejectsDuplicateRunnerIDs(t *testing.T) {
	a := newFakeRunner(t, "dup", "Q845", 0)
	b := newFakeRunner(t, "dup", "Q855", 0)
	if _, err := NewPool(a, b); err == nil {
		t.Fatal("duplicate runner ids must be rejected")
	}
	if _, err := NewPool(); err == nil {
		t.Fatal("empty pool must be rejected")
	}
}

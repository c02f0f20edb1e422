package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/gaugenn/gaugenn/internal/core"
	"github.com/gaugenn/gaugenn/internal/event"
	"github.com/gaugenn/gaugenn/internal/sched"
	"github.com/gaugenn/gaugenn/internal/store"
	"github.com/gaugenn/gaugenn/internal/testutil"
)

// emittingRun is a controllable pipeline stand-in: it emits burst
// progress events, then blocks until release closes (or ctx dies).
func emittingRun(burst int, release <-chan struct{}) func(context.Context, core.Config) (*core.StudyResult, error) {
	return func(ctx context.Context, cfg core.Config) (*core.StudyResult, error) {
		cfg.OnEvent(event.Stamped(event.StageStart{Stage: "crawl", Snapshot: "2021", Total: burst}))
		for i := 1; i <= burst; i++ {
			cfg.OnEvent(event.Stamped(event.StageProgress{Stage: "crawl", Snapshot: "2021", Done: i, Total: burst}))
		}
		select {
		case <-release:
			return &core.StudyResult{}, nil
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
}

// schedServer builds a scheduler-enabled test server over an empty
// store. Cleanup drains the scheduler before the server closes.
func schedServer(t *testing.T, cfg sched.Config, opts ...Option) (*httptest.Server, *sched.Scheduler) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sch := sched.New(cfg)
	srv := httptest.NewServer(New(st, append(opts, WithScheduler(sch))...).Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := sch.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		srv.Close()
	})
	return srv, sch
}

// submitSpec POSTs one spec and decodes the 202.
func submitSpec(t *testing.T, srv *httptest.Server, spec sched.Spec, tenant string) sched.Job {
	t.Helper()
	body, _ := json.Marshal(spec)
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/api/studies", bytes.NewReader(body))
	req.Header.Set("X-Gaugenn-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, raw)
	}
	var job sched.Job
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatal(err)
	}
	return job
}

// sseConn is one open SSE stream plus its parser.
type sseConn struct {
	resp *http.Response
	br   *bufio.Reader
}

func openEvents(t *testing.T, srv *httptest.Server, id string, cursor uint64) *sseConn {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/api/studies/"+id+"/events", nil)
	if cursor > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(cursor, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("events = %d: %s", resp.StatusCode, body)
	}
	return &sseConn{resp: resp, br: bufio.NewReader(resp.Body)}
}

func (c *sseConn) close() { c.resp.Body.Close() }

// next reads one frame; the error surfaces cut connections.
func (c *sseConn) next() (id uint64, typ string, ev sched.WireEvent, err error) {
	seen := false
	for {
		line, rerr := c.br.ReadString('\n')
		if rerr != nil {
			return 0, "", sched.WireEvent{}, rerr
		}
		line = strings.TrimRight(line, "\n")
		if line == "" {
			if seen {
				return id, typ, ev, nil
			}
			continue
		}
		field, value, _ := strings.Cut(line, ": ")
		switch field {
		case "id":
			id, _ = strconv.ParseUint(value, 10, 64)
			seen = true
		case "event":
			typ = value
			seen = true
		case "data":
			if jerr := json.Unmarshal([]byte(value), &ev); jerr != nil {
				return 0, "", sched.WireEvent{}, jerr
			}
			seen = true
		}
	}
}

// drainToEnd reads frames until the terminal event, asserting the
// cursor is strictly increasing (no gap, no duplicate), and returns
// every seq seen plus the end event.
func drainToEnd(t *testing.T, c *sseConn, from uint64) ([]uint64, sched.WireEvent) {
	t.Helper()
	cursor := from
	var seqs []uint64
	for {
		id, typ, ev, err := c.next()
		if err != nil {
			t.Fatalf("stream cut before end (cursor %d): %v", cursor, err)
		}
		if typ == sched.TypeTruncated {
			t.Fatalf("unexpected truncation at cursor %d", cursor)
		}
		if id <= cursor {
			t.Fatalf("cursor regression: %d after %d", id, cursor)
		}
		cursor = id
		seqs = append(seqs, id)
		if typ == sched.TypeEnd {
			return seqs, ev
		}
	}
}

// TestSubmitStreamLifecycle covers the happy path over HTTP: submit,
// stream queued -> running -> progress -> end(done), and the status
// endpoint agreeing afterwards.
func TestSubmitStreamLifecycle(t *testing.T) {
	testutil.NoLeakedGoroutines(t)
	release := make(chan struct{})
	srv, _ := schedServer(t, sched.Config{MaxWorkers: 1, Run: emittingRun(5, release)})
	job := submitSpec(t, srv, sched.Spec{Seed: 1, Scale: 0.01}, "acme")
	c := openEvents(t, srv, job.ID, 0)
	defer c.close()
	close(release)
	seqs, end := drainToEnd(t, c, 0)
	if end.State != string(sched.StateDone) {
		t.Fatalf("end state = %q, want done", end.State)
	}
	// queued + running states, stage start + 5 progress, end.
	if len(seqs) < 8 {
		t.Fatalf("only %d events on the stream", len(seqs))
	}
	var got sched.Job
	if err := json.Unmarshal(get(t, srv, "/api/studies/"+job.ID+"/status", 200), &got); err != nil {
		t.Fatal(err)
	}
	if got.State != sched.StateDone || got.Attempts != 1 {
		t.Fatalf("status after end: %+v", got)
	}
}

// TestSubmitShedding fills the queue and verifies the typed sheds:
// 503 + Retry-After on global overload, 429 + Retry-After on a tenant
// exceeding its share, and 400 (no Retry-After) for an invalid spec.
func TestSubmitShedding(t *testing.T) {
	testutil.NoLeakedGoroutines(t)
	release := make(chan struct{})
	defer close(release)
	srv, _ := schedServer(t, sched.Config{
		MaxWorkers:       1,
		MaxQueue:         2,
		TenantQueueShare: 1,
		RetryAfter:       3 * time.Second,
		Run:              emittingRun(1, release),
	})
	post := func(spec sched.Spec, tenant string) *http.Response {
		body, _ := json.Marshal(spec)
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/api/studies", bytes.NewReader(body))
		req.Header.Set("X-Gaugenn-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	// One runs, one queues for tenant b.
	for i, tenant := range []string{"a", "b"} {
		if resp := post(sched.Spec{Seed: int64(i), Scale: 0.01}, tenant); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, resp.StatusCode)
		}
	}
	// Tenant b already holds its queue share (queue itself has room):
	// 429 with pacing — b's problem, not the service's.
	resp := post(sched.Spec{Seed: 9, Scale: 0.01}, "b")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("tenant overflow = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "3" {
		t.Fatalf("429 Retry-After = %q, want 3", resp.Header.Get("Retry-After"))
	}
	// Fill the last queue slot, then overflow it: 503 for everyone.
	if resp := post(sched.Spec{Seed: 2, Scale: 0.01}, "c"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit c = %d", resp.StatusCode)
	}
	resp = post(sched.Spec{Seed: 10, Scale: 0.01}, "d")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queue overflow = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "3" {
		t.Fatalf("503 Retry-After = %q, want 3", resp.Header.Get("Retry-After"))
	}
	// An invalid spec is the client's fault, not overload: 400, no pacing.
	resp = post(sched.Spec{Seed: 1, Scale: 7}, "e")
	if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("Retry-After") != "" {
		t.Fatalf("bad spec = %d (Retry-After %q), want 400 without pacing", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestSSEClientDisconnectMidStream hangs up rudely mid-stream and
// verifies nothing downstream cares: the run completes, the handler
// goroutine unwinds (leak-gated), and a later subscriber still replays
// the full history.
func TestSSEClientDisconnectMidStream(t *testing.T) {
	testutil.NoLeakedGoroutines(t)
	release := make(chan struct{})
	srv, sch := schedServer(t, sched.Config{MaxWorkers: 1, Run: emittingRun(8, release)})
	job := submitSpec(t, srv, sched.Spec{Seed: 1, Scale: 0.01}, "acme")
	c := openEvents(t, srv, job.ID, 0)
	if _, _, _, err := c.next(); err != nil {
		t.Fatal(err)
	}
	c.close() // rude: mid-stream, no goodbye
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if got, err := sch.Wait(ctx, job.ID); err != nil || got.State != sched.StateDone {
		t.Fatalf("job after rude disconnect: %+v, %v", got, err)
	}
	// The ring survived the rude client: a fresh consumer replays
	// everything from the beginning through the terminal event.
	c2 := openEvents(t, srv, job.ID, 0)
	defer c2.close()
	seqs, end := drainToEnd(t, c2, 0)
	if end.State != string(sched.StateDone) || len(seqs) < 10 {
		t.Fatalf("replay after disconnect: %d events, end %+v", len(seqs), end)
	}
}

// TestSSEStalledReaderResumesGapFree stalls mid-stream until the server
// cuts the subscriber (lag drop or write deadline), then resumes with
// Last-Event-ID and verifies the stitched stream has no gap and no
// duplicate versus a full ring replay taken after the job ends.
func TestSSEStalledReaderResumesGapFree(t *testing.T) {
	testutil.NoLeakedGoroutines(t)
	release := make(chan struct{})
	// The burst (4000 events) dwarfs the subscriber buffer (256) so the
	// stalled reader is dropped, while the ring (1<<14) retains
	// everything so the resume replays gap-free.
	srv, _ := schedServer(t,
		sched.Config{MaxWorkers: 1, RingSize: 1 << 14, Run: emittingRun(4000, release)},
		WithSSEWriteTimeout(200*time.Millisecond),
	)
	job := submitSpec(t, srv, sched.Spec{Seed: 1, Scale: 0.01}, "acme")

	// Stalled reader: take the first frame, then stop consuming.
	c := openEvents(t, srv, job.ID, 0)
	first, _, _, err := c.next()
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the burst overrun the subscriber
	close(release)

	// Resume by cursor until the stitched stream reaches the end,
	// reconnecting as often as the server cuts us.
	cursor := first
	seqs := []uint64{first}
	deadline := time.Now().Add(20 * time.Second)
	for {
		id, typ, _, err := c.next()
		if err != nil {
			c.close()
			if time.Now().After(deadline) {
				t.Fatal("stalled reader never reached the end")
			}
			c = openEvents(t, srv, job.ID, cursor)
			continue
		}
		if typ == sched.TypeTruncated {
			t.Fatalf("ring truncated under stall (cursor %d)", cursor)
		}
		if id <= cursor {
			t.Fatalf("gap/duplicate after resume: %d following %d", id, cursor)
		}
		cursor = id
		seqs = append(seqs, id)
		if typ == sched.TypeEnd {
			break
		}
	}
	c.close()

	// Reference: a full ring replay once the job has ended. A live reader
	// opened alongside would be cut by the same subscriber-lag drop the
	// stalled reader exercises, so only the replay sees the whole stream.
	full := openEvents(t, srv, job.ID, 0)
	ref, _ := drainToEnd(t, full, 0)
	full.close()
	if len(ref) != len(seqs) {
		t.Fatalf("stalled reader saw %d events, reference saw %d", len(seqs), len(ref))
	}
	for i := range ref {
		if ref[i] != seqs[i] {
			t.Fatalf("stream divergence at %d: %d vs %d", i, seqs[i], ref[i])
		}
	}
}

// TestSSEResumeChunkedGapFree reads the stream three frames at a time,
// disconnecting after each chunk and reconnecting with Last-Event-ID,
// and requires the stitched sequence to be identical to an
// uninterrupted read.
func TestSSEResumeChunkedGapFree(t *testing.T) {
	testutil.NoLeakedGoroutines(t)
	release := make(chan struct{})
	srv, sch := schedServer(t, sched.Config{MaxWorkers: 1, Run: emittingRun(20, release)})
	job := submitSpec(t, srv, sched.Spec{Seed: 1, Scale: 0.01}, "acme")
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := sch.Wait(ctx, job.ID); err != nil {
		t.Fatal(err)
	}

	full := openEvents(t, srv, job.ID, 0)
	want, _ := drainToEnd(t, full, 0)
	full.close()

	var got []uint64
	cursor := uint64(0)
	for len(got) == 0 || got[len(got)-1] != want[len(want)-1] {
		c := openEvents(t, srv, job.ID, cursor)
		for i := 0; i < 3; i++ {
			id, typ, _, err := c.next()
			if err != nil {
				t.Fatalf("chunked read (cursor %d): %v", cursor, err)
			}
			if id <= cursor {
				t.Fatalf("duplicate after reconnect: %d following %d", id, cursor)
			}
			cursor = id
			got = append(got, id)
			if typ == sched.TypeEnd {
				break
			}
		}
		c.close()
	}
	if fmt.Sprint(want) != fmt.Sprint(got) {
		t.Fatalf("chunked stream diverged:\nwant %v\ngot  %v", want, got)
	}
}

// TestPreemptedStudyResumesByteIdentical runs the real pipeline: a
// low-priority study is preempted mid-run by a high-priority one, then
// resumed warm — and its persisted corpora must be byte-identical
// (same CAS keys) to an uninterrupted run of the same spec.
func TestPreemptedStudyResumesByteIdentical(t *testing.T) {
	testutil.NoLeakedGoroutines(t)
	if testing.Short() {
		t.Skip("real pipeline runs")
	}
	cacheDir := t.TempDir()
	st, err := store.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	sch := sched.New(sched.Config{CacheDir: cacheDir, MaxWorkers: 1})
	srv := httptest.NewServer(New(st, WithScheduler(sch)).Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	defer func() {
		if err := sch.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()

	low := submitSpec(t, srv, sched.Spec{Seed: 101, Scale: 0.02, Priority: 0}, "acme")
	// Wait until the low-priority run is actually executing before
	// submitting the preemptor.
	c := openEvents(t, srv, low.ID, 0)
	for {
		_, typ, ev, err := c.next()
		if err != nil {
			t.Fatal(err)
		}
		if typ == sched.TypeState && ev.State == string(sched.StateRunning) {
			break
		}
	}
	c.close()
	high := submitSpec(t, srv, sched.Spec{Seed: 202, Scale: 0.01, Priority: 5}, "acme")

	lowJob, err := sch.Wait(ctx, low.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sch.Wait(ctx, high.ID); err != nil {
		t.Fatal(err)
	}
	if lowJob.State != sched.StateDone {
		t.Fatalf("low-priority job: %+v", lowJob)
	}
	if lowJob.Preemptions == 0 {
		t.Fatalf("low-priority job was never preempted: %+v", lowJob)
	}

	// Reference: the same spec, uninterrupted, in a pristine store.
	refCfg := core.DefaultConfig(101, 0.02)
	refCfg.UseHTTP = false
	refCfg.KeepGraphs = false
	refCfg.CacheDir = t.TempDir()
	ref, err := core.Run(ctx, refCfg)
	if err != nil {
		t.Fatal(err)
	}

	var detail struct {
		Snapshots map[string]struct {
			CorpusKey string `json:"corpus_key"`
		} `json:"snapshots"`
	}
	if err := json.Unmarshal(get(t, srv, "/api/studies/"+lowJob.StudyID, 200), &detail); err != nil {
		t.Fatal(err)
	}
	for label, key := range ref.Persist.CorpusKeys {
		if detail.Snapshots[label].CorpusKey != key {
			t.Fatalf("snapshot %s: preempted-and-resumed corpus %s != uninterrupted %s",
				label, detail.Snapshots[label].CorpusKey, key)
		}
	}
}

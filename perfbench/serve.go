package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/gaugenn/gaugenn/internal/core"
	"github.com/gaugenn/gaugenn/internal/obs"
	"github.com/gaugenn/gaugenn/internal/serve"
	"github.com/gaugenn/gaugenn/internal/store"
)

const (
	// The served store holds serveStudies persisted studies: with two
	// snapshots each, every corpus, index and memoised response fits the
	// server's caches (16 corpora, 256 indexes, 1024 responses), so the
	// eviction regime is out of scope.
	serveStudies = 3
	serveScale   = 0.05
	// serveSetups is how many fresh servers set-up starts and warms up on
	// the persisted store; setup_s is their median, and the last one is
	// measured.
	serveSetups = 5
	// Clients replay one seeded request sequence of seqLen steps, each from
	// its own offset.
	seqLen = 1 << 16
	// maxRecorded bounds the latency samples a client keeps per measured
	// second; requests beyond it are still made and checked.
	maxRecorded = 40000
	maxSpans    = 50000
)

// Route indexes into serveRoutes.
const (
	rModel = iota
	rStudy
	rStudies
	rDiff
	rTables
	rHealthz
	rRevalidate
)

// routeWeights is the request mix. Nothing records real read traffic, so
// the weights are assumed: per-model lookups, the query API's main use,
// are the majority; every other read route gets a share large enough for
// its own percentiles; a tenth of requests revalidate. The mix largely
// decides what latency_ms and throughput_per_s weigh — /tables renders
// cost several times a memo hit — so the traced run reports every route's
// latency and count, from which a change's effect under another mix can be
// worked out.
var routeWeights = [...]float64{rModel: 0.55, rStudy: 0.08, rStudies: 0.04, rDiff: 0.08, rTables: 0.10, rHealthz: 0.05, rRevalidate: 0.10}

// handlerRoutes maps each route to the pattern its server-side latency
// histogram is labelled with.
var handlerRoutes = map[int]string{
	rModel: "GET /api/models/{checksum}", rStudy: "GET /api/studies/{id}", rStudies: "GET /api/studies",
	rDiff: "GET /api/diff", rTables: "GET /api/studies/{id}/tables", rHealthz: "GET /healthz",
}

// target is one distinct URL and the first response the server gave it.
type target struct {
	path  string
	route int
	etag  string
	body  []byte
	// table is what core.StudyTables renders for a /tables URL.
	table string
}

// step is one request of the sequence: a target, plain or revalidated.
type step struct {
	target     int32
	revalidate bool
}

type serveFixture struct {
	base    string
	targets []*target
	seq     []step
	hs      *http.Server
	served  chan error
}

func (fx *serveFixture) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := fx.hs.Shutdown(ctx)
	if serr := <-fx.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// start serves st from a fresh serve.New on a new loopback listener.
func (fx *serveFixture) start(st *store.Store) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fx.base = "http://" + ln.Addr().String()
	fx.hs = &http.Server{Handler: serve.New(st).Handler()}
	fx.served = make(chan error, 1)
	go func() { fx.served <- fx.hs.Serve(ln) }()
	return nil
}

// warmUp makes one pass over every distinct URL. The first pass records
// each response as the reference all later ones must equal, and checks
// every /tables text against core.StudyTables.
func (fx *serveFixture) warmUp(ck *checker, first bool) error {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	for _, t := range fx.targets {
		resp, err := hc.Get(fx.base + t.path)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		ck.attempt(1)
		if err == nil && !first {
			err = checkResponse(t.path, resp.StatusCode, http.StatusOK, buf.Bytes(), t.body)
		} else if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("warm-up GET %s: status %d", t.path, resp.StatusCode)
		}
		if !ck.check(err) || !first {
			continue
		}
		t.body, t.etag = buf.Bytes(), resp.Header.Get("ETag")
		if t.route == rTables {
			ck.check(checkTables(t.path, t.body, t.table))
		}
	}
	return nil
}

// newServeFixture persists the studies, then sets up a fresh server
// serveSetups times — serve.New on the store, a loopback listener and a
// warm-up pass — and keeps the last one. It returns each server set-up's
// time.
func newServeFixture(e *env, ck *checker) (*serveFixture, []float64, error) {
	dir, err := e.freshDir()
	if err != nil {
		return nil, nil, err
	}
	var ids []string
	tables := map[string]map[string]string{}
	sums := map[string]bool{}
	for _, s := range studySeeds(e.seed, serveStudies) {
		cfg := studyConfig(s, dir)
		cfg.Scale = serveScale
		res, err := core.Run(context.Background(), cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("persisting study seed %d: %w", s, err)
		}
		id := res.Persist.StudyID
		ids = append(ids, id)
		tables[id] = core.StudyTables(res.Corpus20, res.Corpus21)
		for sum := range res.Corpus20.Uniques {
			sums[string(sum)] = true
		}
		for sum := range res.Corpus21.Uniques {
			sums[string(sum)] = true
		}
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, nil, err
	}

	fx := &serveFixture{}
	var checksums []string
	for s := range sums {
		checksums = append(checksums, s)
	}
	sort.Strings(checksums)
	add := func(route int, path string) *target {
		t := &target{path: path, route: route}
		fx.targets = append(fx.targets, t)
		return t
	}
	for _, s := range checksums {
		add(rModel, "/api/models/"+s)
	}
	for _, id := range ids {
		add(rStudy, "/api/studies/"+id)
		for _, name := range core.TableNames() {
			add(rTables, "/api/studies/"+id+"/tables?name="+name).table = tables[id][name]
		}
		for _, to := range ids {
			if to != id {
				add(rDiff, "/api/diff?"+url.Values{"from": {id}, "to": {to}}.Encode())
			}
		}
	}
	add(rStudies, "/api/studies")
	add(rHealthz, "/healthz")

	var setups []float64
	for i := 0; i < serveSetups; i++ {
		if i > 0 {
			if err := fx.close(); err != nil {
				return nil, nil, fmt.Errorf("stopping set-up server: %w", err)
			}
		}
		t0 := time.Now()
		if err := fx.start(st); err != nil {
			return nil, nil, err
		}
		if err := fx.warmUp(ck, i == 0); err != nil {
			fx.close()
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fx.seq = requestSequence(e.seed, fx.targets, seqLen)
	return fx, setups, nil
}

// checkTables compares a served /tables text with the tables
// core.StudyTables renders from the study that persisted it.
func checkTables(path string, body []byte, want string) error {
	if want == "" || string(body) != want {
		return fmt.Errorf("GET %s: served table differs from core.StudyTables", path)
	}
	return nil
}

// checkResponse holds one response to its expected status and, for a 200,
// to byte equality with the first response for its URL.
func checkResponse(path string, status, wantStatus int, body, first []byte) error {
	if status != wantStatus {
		return fmt.Errorf("GET %s: status %d, want %d", path, status, wantStatus)
	}
	if wantStatus == http.StatusOK && !bytes.Equal(body, first) {
		return fmt.Errorf("GET %s: body differs from the first response (%d vs %d bytes)", path, len(body), len(first))
	}
	if wantStatus == http.StatusNotModified && len(body) != 0 {
		return fmt.Errorf("GET %s: 304 with a %d-byte body", path, len(body))
	}
	return nil
}

// requestSequence draws the seeded mix: model checksums by Zipf over a
// seeded ranking, other routes uniformly over their URLs, revalidations
// over every URL with an ETag. The Zipf exponent, 1.1, is assumed too; it
// is the one the synthetic store gives app popularity by rank.
func requestSequence(seed int64, targets []*target, n int) []step {
	r := rand.New(rand.NewSource(seed))
	byRoute := map[int][]int32{}
	var revalidatable []int32
	for i, t := range targets {
		byRoute[t.route] = append(byRoute[t.route], int32(i))
		if t.etag != "" {
			revalidatable = append(revalidatable, int32(i))
		}
	}
	models := byRoute[rModel]
	r.Shuffle(len(models), func(i, j int) { models[i], models[j] = models[j], models[i] })
	zipf := rand.NewZipf(r, 1.1, 1, uint64(len(models)-1))
	var cum [len(routeWeights)]float64
	total := 0.0
	for i, w := range routeWeights {
		total += w
		cum[i] = total
	}
	seq := make([]step, n)
	for i := range seq {
		x := r.Float64() * total
		route := 0
		for route < len(cum)-1 && x >= cum[route] {
			route++
		}
		switch route {
		case rModel:
			seq[i] = step{target: models[zipf.Uint64()]}
		case rRevalidate:
			seq[i] = step{target: revalidatable[r.Intn(len(revalidatable))], revalidate: true}
		default:
			urls := byRoute[route]
			seq[i] = step{target: urls[r.Intn(len(urls))]}
		}
	}
	return seq
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// serveClient is one keep-alive connection's closed loop. Requests are
// built once per URL and reused, and bodies land in one buffer, so the
// allocations measured are the client's and server's, not the loop's.
type serveClient struct {
	hc         *http.Client
	plain, rev []*http.Request
	buf        bytes.Buffer
	start      time.Time
	// Per recorded request: latency, completion time since start (both
	// ns) and route.
	lat, ends []int64
	routes    []uint8
	n         int
}

func newServeClient(fx *serveFixture, capacity int) (*serveClient, error) {
	c := &serveClient{
		hc:  newHTTPClient(),
		lat: make([]int64, 0, capacity), ends: make([]int64, 0, capacity), routes: make([]uint8, 0, capacity),
	}
	for _, t := range fx.targets {
		req, err := http.NewRequest(http.MethodGet, fx.base+t.path, nil)
		if err != nil {
			return nil, err
		}
		rev := req.Clone(context.Background())
		rev.Header.Set("If-None-Match", t.etag)
		c.plain, c.rev = append(c.plain, req), append(c.rev, rev)
	}
	return c, nil
}

// loop replays the sequence from start until the deadline.
func (c *serveClient) loop(fx *serveFixture, start int, deadline time.Time, ck *checker, tr *tracer, op int64) {
	for i := start; time.Now().Before(deadline); i++ {
		c.do(fx, fx.seq[i%len(fx.seq)], ck, tr, op+int64(i))
	}
}

// do makes one request, checks its response and records its latency.
func (c *serveClient) do(fx *serveFixture, s step, ck *checker, tr *tracer, op int64) {
	t := fx.targets[s.target]
	req, want, route := c.plain[s.target], http.StatusOK, t.route
	if s.revalidate {
		req, want, route = c.rev[s.target], http.StatusNotModified, rRevalidate
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(t0)
	c.n++
	if err == nil {
		err = checkResponse(t.path, resp.StatusCode, want, c.buf.Bytes(), t.body)
	}
	if !ck.check(err) {
		return
	}
	if len(c.lat) < cap(c.lat) {
		c.lat = append(c.lat, int64(d))
		c.ends = append(c.ends, int64(time.Since(c.start)))
		c.routes = append(c.routes, uint8(route))
	}
	tr.root(serveRoutes[route], op, t0, d)
}

// windowed splits the recorded requests into one-second windows of
// completion time and returns each full window's median latency (ms) and
// request rate.
func windowed(cs []*serveClient, elapsed time.Duration) (p50s, rates []float64) {
	byWindow := make([][]float64, int(elapsed/time.Second))
	for _, c := range cs {
		for i, end := range c.ends {
			if w := int(end / int64(time.Second)); w < len(byWindow) {
				byWindow[w] = append(byWindow[w], float64(c.lat[i])/1e6)
			}
		}
	}
	for _, xs := range byWindow {
		if len(xs) > 0 {
			p50s = append(p50s, median(xs))
			rates = append(rates, float64(len(xs)))
		}
	}
	return p50s, rates
}

// handlerStats snapshots the server-side latency histogram of each route.
func handlerStats() map[int][2]float64 {
	out := map[int][2]float64{}
	for r, pattern := range handlerRoutes {
		h := obs.Default().Histogram("gaugenn_serve_request_seconds", "", nil, obs.Label{Name: "route", Value: pattern})
		out[r] = [2]float64{float64(h.Count()), h.Sum()}
	}
	return out
}

func serveCounter(name string) float64 { return float64(obs.Default().Counter(name, "").Value()) }

func runServeRead(e *env) (*result, error) {
	ck := &checker{}
	t0 := time.Now()
	fx, setups, err := newServeFixture(e, ck)
	if err != nil {
		return nil, err
	}
	setupTotal := time.Since(t0)

	clients := runtime.NumCPU()
	var cs []*serveClient
	for i := 0; i < clients; i++ {
		c, err := newServeClient(fx, maxRecorded*int(e.seconds/time.Second))
		if err != nil {
			fx.close()
			return nil, err
		}
		cs = append(cs, c)
	}
	var tr *tracer
	if e.trace {
		tr = newTracer(maxSpans)
	}
	counters := []string{"gaugenn_serve_corpus_decodes_total", "gaugenn_serve_index_builds_total", "gaugenn_serve_corpus_evictions_total"}
	before := map[string]float64{}
	for _, n := range counters {
		before[n] = serveCounter(n)
	}
	h0 := handlerStats()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	deadline := start.Add(e.seconds)
	var wg sync.WaitGroup
	for i, c := range cs {
		c.start = start
		wg.Add(1)
		go func(i int, c *serveClient) {
			defer wg.Done()
			c.loop(fx, i*len(fx.seq)/len(cs), deadline, ck, tr, int64(i)<<40)
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	allocated := ms.TotalAlloc - alloc0
	h1 := handlerStats()
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
	if err := fx.close(); err != nil {
		return nil, fmt.Errorf("stopping server: %w", err)
	}

	var all []float64
	byRoute := make([][]float64, len(serveRoutes))
	requests := 0
	for _, c := range cs {
		requests += c.n
		for i, ns := range c.lat {
			ms := float64(ns) / 1e6
			all = append(all, ms)
			byRoute[c.routes[i]] = append(byRoute[c.routes[i]], ms)
		}
	}
	ck.attempt(requests)
	r := &result{}
	r.setChecks(ck)
	if len(all) == 0 {
		return nil, fmt.Errorf("no request succeeded")
	}
	p50, p99 := quantile(all, 0.5), quantile(all, 0.99)
	rps := float64(requests) / elapsed.Seconds()
	winP50s, winRates := windowed(cs, elapsed)
	fastP50, fastRPS := quantile(winP50s, fastLatency), quantile(winRates, fastRate)
	allocKB := float64(allocated) / float64(requests) / 1024
	if e.trace {
		r.add(tracedFigure[mLatency], fastP50, "ms", len(all))
		r.add(tracedFigure[mThroughput], fastRPS, "1/s", len(winRates))
		r.add(tracedFigure[mAlloc], allocKB, "KB", len(all))
		for route, name := range serveRoutes {
			xs := byRoute[route]
			if len(xs) > 0 {
				r.add("serve."+name+".p50_ms", quantile(xs, 0.5), "ms", len(xs))
				r.add("serve."+name+".p99_ms", quantile(xs, 0.99), "ms", len(xs))
			}
			r.add("serve."+name+".count", float64(len(xs)), "count", 0)
			if _, ok := handlerRoutes[route]; ok {
				n, sum := h1[route][0]-h0[route][0], h1[route][1]-h0[route][1]
				if n > 0 {
					r.add("serve."+name+".handler_ms", 1e3*sum/n, "ms", int(n))
				}
			}
		}
		r.add("serve.p99_ms", p99, "ms", len(all))
		// net/http and the client cost the memo path's client time minus
		// its handler time.
		if xs, n := byRoute[rModel], h1[rModel][0]-h0[rModel][0]; len(xs) > 0 && n > 0 {
			r.add("serve.http_ms", quantile(xs, 0.5)-1e3*(h1[rModel][1]-h0[rModel][1])/n, "ms", len(xs))
		}
		r.add("serve.corpus_decodes", serveCounter(counters[0])-before[counters[0]], "count", 0)
		r.add("serve.index_builds", serveCounter(counters[1])-before[counters[1]], "count", 0)
		r.add("serve.corpus_evictions", serveCounter(counters[2])-before[counters[2]], "count", 0)
		r.add("serve.resident_corpora", obs.Default().Gauge("gaugenn_serve_resident_corpora", "").Value(), "count", 0)
		r.add("serve.resident_indexes", obs.Default().Gauge("gaugenn_serve_resident_indexes", "").Value(), "count", 0)
		if err := tr.write(e.traceFile); err != nil {
			return nil, err
		}
		fmt.Fprintf(e.log, "perfbench: trace written to %s\n", e.traceFile)
		return r, nil
	}
	r.add(mSetup, median(setups), "s", len(setups))
	r.add(mLatency, fastP50, "ms", len(all))
	r.add(mThroughput, fastRPS, "1/s", len(winRates))
	r.add(mAlloc, allocKB, "KB", requests)
	r.figure("setup_s", median(setups), "s", len(setups))
	r.figure("setup_total_s", setupTotal.Seconds(), "s", 1)
	r.figure("query_p50_ms", p50, "ms", len(all))
	r.figure("query_p99_ms", p99, "ms", len(all))
	r.figure("query_rps", rps, "req/s", requests)
	r.figure("query_alloc_kb", allocKB, "KB", requests)
	r.figure("clients", float64(clients), "count", 0)
	r.figure("urls", float64(len(fx.targets)), "count", 0)
	r.figure("fail_frac", ck.failFrac(), "ratio", 0)
	return r, nil
}

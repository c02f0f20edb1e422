// Package crawler implements gaugeNN's store-facing collection step
// (Section 3.1): it "mimics the web API calls made from the Google Play
// store of a typical mobile device", fetching the top free apps per
// category (up to 500), downloading each app's package and companion
// files, and handing each app's store metadata and package to the caller.
package crawler

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"github.com/gaugenn/gaugenn/internal/android/apk"
	"github.com/gaugenn/gaugenn/internal/errgroup"
	"github.com/gaugenn/gaugenn/internal/errs"
	"github.com/gaugenn/gaugenn/internal/retry"
)

// AppMeta is the store metadata captured per app listing.
type AppMeta struct {
	Package   string  `json:"package"`
	Title     string  `json:"title"`
	Category  string  `json:"category"`
	Rank      int     `json:"rank"`
	Downloads int64   `json:"downloads"`
	Rating    float64 `json:"rating"`
}

// DeliveryManifest mirrors the store's companion-file listing.
type DeliveryManifest struct {
	Package    string   `json:"package"`
	OBBs       []string `json:"obbs"`
	AssetPacks []string `json:"assetPacks"`
}

// Client speaks the store's device API. UserAgent and Locale are mandatory
// ("both the user-agent and locale headers are defined, which determine the
// variant of the store and apps retrieved"); DeviceModel identifies the
// device profile, which Section 4.2 varies to probe device-specific
// delivery.
type Client struct {
	BaseURL     string
	UserAgent   string
	Locale      string
	DeviceModel string
	HTTPClient  *http.Client
	// Retry shapes the transient-failure ladder (network errors, 5xx,
	// 429); a 16k-app crawl cannot afford to die on one hiccup. Nil uses
	// retry.Default(). A 429/503 Retry-After header overrides the
	// computed backoff, capped by the policy's MaxDelay.
	Retry *retry.Policy
	// Breaker, when non-nil, circuit-breaks per BaseURL: once the host
	// trips it, further requests fail fast with retry.ErrOpen instead of
	// burning the full ladder against a dead server.
	Breaker *retry.Breaker
}

// NewClient builds a client with the paper's default device profile (a
// UK-locale Samsung S10, SM-G977B).
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL:     baseURL,
		UserAgent:   "Android-Finsky/8.0 (api=3,versionCode=80000,device=beyond1)",
		Locale:      "en_GB",
		DeviceModel: "SM-G977B",
		HTTPClient:  &http.Client{Timeout: 120 * time.Second},
	}
}

// policy resolves the effective retry policy: Retry, else the shared
// default ladder.
func (c *Client) policy() retry.Policy {
	if c.Retry != nil {
		return *c.Retry
	}
	return retry.Default()
}

func (c *Client) get(ctx context.Context, path string, q url.Values) ([]byte, error) {
	u := c.BaseURL + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var body []byte
	err := retry.Do(ctx, c.policy(), func(ctx context.Context) error {
		if !c.Breaker.Allow(c.BaseURL) {
			return retry.Permanent(fmt.Errorf("crawler: host %s: %w", c.BaseURL, retry.ErrOpen))
		}
		b, retryable, err := c.getOnce(ctx, u, path)
		if err == nil {
			c.Breaker.Success(c.BaseURL)
			body = b
			return nil
		}
		c.Breaker.Failure(c.BaseURL)
		if !retryable {
			return retry.Permanent(err)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return body, nil
}

func (c *Client) getOnce(ctx context.Context, u, path string) (body []byte, retryable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, false, fmt.Errorf("crawler: %w", err)
	}
	req.Header.Set("User-Agent", c.UserAgent)
	req.Header.Set("X-DFE-Locale", c.Locale)
	if c.DeviceModel != "" {
		req.Header.Set("X-DFE-Device", c.DeviceModel)
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	metRequests.Inc()
	resp, err := hc.Do(req)
	if err != nil {
		metRequestFailures.Inc()
		return nil, true, fmt.Errorf("crawler: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err = readBody(resp.Body, resp.ContentLength)
	metResponseBytes.Add(uint64(len(body)))
	if err != nil {
		metRequestFailures.Inc()
		return nil, true, fmt.Errorf("crawler: reading %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		metRequestFailures.Inc()
		statusErr := fmt.Errorf("crawler: GET %s: status %d: %s", path, resp.StatusCode, truncate(body, 200))
		retryable := resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests
		if retryable {
			// A throttling server names its own pacing: carry Retry-After
			// (delta-seconds or HTTP-date, parsed by the shared retry
			// helper) to the policy, which honours it up to its MaxDelay cap.
			statusErr = retry.RetryAfterHint(statusErr, resp.Header)
		}
		return nil, retryable, statusErr
	}
	return body, false, nil
}

// Categories lists the store's category identifiers.
func (c *Client) Categories(ctx context.Context) ([]string, error) {
	body, err := c.get(ctx, "/fdfe/categories", nil)
	if err != nil {
		return nil, err
	}
	var cats []string
	if err := json.Unmarshal(body, &cats); err != nil {
		return nil, fmt.Errorf("crawler: bad categories payload: %w", err)
	}
	return cats, nil
}

// TopChart fetches up to n chart entries for a category.
func (c *Client) TopChart(ctx context.Context, category string, n int) ([]AppMeta, error) {
	q := url.Values{"cat": {category}, "n": {fmt.Sprint(n)}}
	body, err := c.get(ctx, "/fdfe/topCharts", q)
	if err != nil {
		return nil, err
	}
	var out []AppMeta
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("crawler: bad chart payload: %w", err)
	}
	return out, nil
}

// Details fetches one app's metadata.
func (c *Client) Details(ctx context.Context, pkg string) (AppMeta, error) {
	var meta AppMeta
	body, err := c.get(ctx, "/fdfe/details", url.Values{"doc": {pkg}})
	if err != nil {
		return meta, err
	}
	if err := json.Unmarshal(body, &meta); err != nil {
		return meta, fmt.Errorf("crawler: bad details payload: %w", err)
	}
	return meta, nil
}

// DownloadAPK fetches the app's base APK bytes.
func (c *Client) DownloadAPK(ctx context.Context, pkg string) ([]byte, error) {
	b, err := c.get(ctx, "/fdfe/purchase", url.Values{"doc": {pkg}})
	if err == nil {
		metDownloads.Inc()
		metDownloadBytes.Add(uint64(len(b)))
	}
	return b, err
}

// Delivery fetches the companion-file manifest (OBBs, asset packs).
func (c *Client) Delivery(ctx context.Context, pkg string) (DeliveryManifest, error) {
	var man DeliveryManifest
	body, err := c.get(ctx, "/fdfe/delivery", url.Values{"doc": {pkg}})
	if err != nil {
		return man, err
	}
	if err := json.Unmarshal(body, &man); err != nil {
		return man, fmt.Errorf("crawler: bad delivery payload: %w", err)
	}
	return man, nil
}

// Crawler walks the whole store's category charts and downloads every
// charted app.
type Crawler struct {
	Client *Client
	// MaxPerCategory caps chart depth (500 in the paper).
	MaxPerCategory int
	// Workers bounds the crawl fan-out: chart fetches and per-app
	// download+handle work run on up to Workers goroutines (<= 1 crawls
	// sequentially). The handle callback must be safe for concurrent use
	// when Workers > 1.
	Workers int
	// Progress, when non-nil, receives (done, total) after each app, plus
	// one (0, total) stage-start call before any app is dispatched so
	// consumers learn the total up front. Calls are serialised even when
	// Workers > 1.
	Progress func(done, total int)
	// FailApp, when non-nil, arbitrates per-app failures (download or
	// delivery, after the client's retry ladder gave up): return nil to
	// quarantine the app — it is skipped, counted in Progress but not in
	// Result.Apps, and handle never sees it — or return an error to abort
	// the crawl. Nil FailApp aborts on the first failure, as does any
	// context cancellation (cancellations never reach FailApp). Called
	// concurrently when Workers > 1.
	FailApp func(idx int, meta AppMeta, err error) error
}

// Result summarises a crawl.
type Result struct {
	Label      string
	Categories int
	Apps       int
	APKBytes   int64
	// CompanionFiles counts OBBs and asset packs encountered; the paper
	// "found no models being distributed outside of the main apk".
	CompanionFiles int
}

// Run crawls every category chart and invokes handle for each downloaded
// app, passing the app's chart metadata alongside its APK bytes.
//
// ctx bounds the whole crawl: cancellation stops dispatching new apps,
// aborts in-flight HTTP requests, and Run returns ctx's error once the
// in-flight workers drain — typically well inside a second. A cancelled
// crawl's Result counts only apps whose handle call completed.
//
// handle receives the app's global crawl index — its deterministic
// position in chart order (categories in store order, apps in rank order)
// — which downstream sharded ingestion uses to keep results byte-identical
// regardless of the worker count. With Workers > 1, handle runs
// concurrently and its invocation order is scheduling-dependent; only the
// index stream is deterministic.
func (cr *Crawler) Run(ctx context.Context, label string, handle func(idx int, meta AppMeta, apkBytes []byte) error) (Result, error) {
	res := Result{Label: label}
	cats, err := cr.Client.Categories(ctx)
	if err != nil {
		return res, err
	}
	res.Categories = len(cats)
	maxN := cr.MaxPerCategory
	if maxN <= 0 {
		maxN = 500
	}
	workers := cr.Workers
	if workers < 1 {
		workers = 1
	}

	// Chart fetches are independent; fan out while keeping category order.
	// cctx dies on the first chart failure (fail-fast across the
	// remaining categories' retry ladders) as well as on run cancellation
	// or a sibling pipeline's failure through the parent context.
	charts := make([][]AppMeta, len(cats))
	cg, cctx := errgroup.WithContext(ctx)
	cg.SetLimit(workers)
	for i, cat := range cats {
		i, cat := i, cat
		cg.Go(func() error {
			if cctx.Err() != nil {
				return nil
			}
			chart, err := cr.Client.TopChart(cctx, cat, maxN)
			if err != nil {
				return fmt.Errorf("crawler: chart %s: %w", cat, err)
			}
			charts[i] = chart
			return nil
		})
	}
	if err := cg.Wait(); err != nil {
		return res, err
	}
	if err := ctx.Err(); err != nil {
		// Cancelled while fetching charts; keep partial charts out of the
		// app phase.
		return res, err
	}
	var items []AppMeta
	for _, chart := range charts {
		items = append(items, chart...)
	}
	total := len(items)
	if cr.Progress != nil {
		// Stage start: announce the total before dispatching, so staged
		// consumers (the study engine's analyse stage) know it up front.
		cr.Progress(0, total)
	}

	// Per-app fan-out: download, delivery check and the handle callback
	// all run on the worker pool. Result accounting and Progress are
	// serialised under mu; actx dies on the first failure
	// (errgroup.WithContext), short-circuiting queued work and aborting
	// in-flight sibling downloads.
	var (
		mu   sync.Mutex
		done int
	)
	g, actx := errgroup.WithContext(ctx)
	g.SetLimit(workers)
	for idx, meta := range items {
		idx, meta := idx, meta
		g.Go(func() error {
			if actx.Err() != nil {
				return nil
			}
			quarantine := func(err error) (bool, error) {
				// Cancellation is not an app failure; a tolerated failure
				// still steps Progress so totals stay consistent.
				if cr.FailApp == nil || actx.Err() != nil || errs.IsContextError(err) {
					return false, err
				}
				if ferr := cr.FailApp(idx, meta, err); ferr != nil {
					return false, ferr
				}
				mu.Lock()
				done++
				if cr.Progress != nil {
					cr.Progress(done, total)
				}
				mu.Unlock()
				return true, nil
			}
			apkBytes, err := cr.Client.DownloadAPK(actx, meta.Package)
			if err != nil {
				skipped, err := quarantine(fmt.Errorf("crawler: download %s: %w", meta.Package, err))
				if skipped {
					return nil
				}
				return err
			}
			man, err := cr.Client.Delivery(actx, meta.Package)
			if err != nil {
				skipped, err := quarantine(fmt.Errorf("crawler: delivery %s: %w", meta.Package, err))
				if skipped {
					return nil
				}
				return err
			}
			if handle != nil {
				if err := handle(idx, meta, apkBytes); err != nil {
					return fmt.Errorf("crawler: handling %s: %w", meta.Package, err)
				}
			}
			mu.Lock()
			res.CompanionFiles += len(man.OBBs) + len(man.AssetPacks)
			res.Apps++
			res.APKBytes += int64(len(apkBytes))
			done++
			if cr.Progress != nil {
				cr.Progress(done, total)
			}
			mu.Unlock()
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return res, err
	}
	if err := ctx.Err(); err != nil {
		// Every worker drained without an error of its own: the crawl was
		// cancelled. Surface the context error so callers can distinguish
		// "interrupted" from "complete".
		return res, err
	}
	return res, nil
}

// readBody drains a response body into a buffer pre-sized from the
// Content-Length hint, so a 100 MB APK download costs one allocation
// instead of io.ReadAll's ~18 doubling regrowths. The hint is only trusted
// up to the store's base-APK ceiling (a hostile header cannot force an
// arbitrary allocation); unknown or implausible lengths fall back to
// io.ReadAll.
func readBody(r io.Reader, contentLength int64) ([]byte, error) {
	if contentLength <= 0 || contentLength > apk.MaxBaseAPKSize {
		return io.ReadAll(r)
	}
	// One spare byte lets the final Read report io.EOF without growing.
	buf := make([]byte, 0, contentLength+1)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			// Body exceeds the declared length; let ReadAll finish the
			// (malformed, but tolerated) remainder.
			rest, err := io.ReadAll(r)
			if err != nil {
				return nil, err
			}
			return append(buf, rest...), nil
		}
	}
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}

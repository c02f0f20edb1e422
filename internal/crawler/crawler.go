// Package crawler speaks the store's device API for gaugeNN's collection
// step (Section 3.1): it "mimics the web API calls made from the Google
// Play store of a typical mobile device". Charts lists the top free apps
// of every category (up to 500) in crawl order; DownloadAPK and Delivery
// fetch one app's package and companion-file manifest. The study engine
// (internal/core) runs the per-app loop over that listing.
package crawler

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"github.com/gaugenn/gaugenn/internal/android/apk"
	"github.com/gaugenn/gaugenn/internal/errgroup"
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
		b, retryable, err := c.getOnce(ctx, u, path)
		if err == nil {
			body = b
			return nil
		}
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
		retryable := !errors.Is(err, errBodyTooLarge)
		return nil, retryable, fmt.Errorf("crawler: reading %s: %w", path, err)
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

// Charts lists the store's apps in crawl order: every category's top
// chart, depth apps deep, with categories in store order and apps in rank
// order. An app's position in the list is its global crawl index, which
// downstream sharded ingestion uses to keep results byte-identical
// regardless of the worker count.
//
// Chart fetches are independent and fan out over up to workers goroutines
// (<= 1 fetches sequentially). The first chart failure cancels the fetches
// still queued or in flight, and cancelling ctx returns ctx's error with
// no partial listing.
func (c *Client) Charts(ctx context.Context, depth, workers int) ([]AppMeta, error) {
	cats, err := c.Categories(ctx)
	if err != nil {
		return nil, err
	}
	charts := make([][]AppMeta, len(cats))
	g, gctx := errgroup.WithContext(ctx)
	g.SetLimit(max(workers, 1))
	for i, cat := range cats {
		g.Go(func() error {
			if gctx.Err() != nil {
				return nil
			}
			chart, err := c.TopChart(gctx, cat, depth)
			if err != nil {
				return fmt.Errorf("crawler: chart %s: %w", cat, err)
			}
			charts[i] = chart
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var apps []AppMeta
	for _, chart := range charts {
		apps = append(apps, chart...)
	}
	return apps, nil
}

// errBodyTooLarge rejects a response body past apk.MaxBaseAPKSize: the
// store serves nothing larger than a base APK, and asking again returns
// the same body, so the client does not retry it.
var errBodyTooLarge = fmt.Errorf("crawler: response body exceeds the %d-byte cap", apk.MaxBaseAPKSize)

// maxChunk bounds each buffer readBody fills for a body of unknown length.
const maxChunk = 1 << 20

// readBody reads a whole response body of at most apk.MaxBaseAPKSize
// bytes. A declared Content-Length sizes the first buffer, so a 100 MB APK
// download costs one allocation instead of a regrowing buffer's dozens. A
// body of unknown length (chunked) fills buffers of up to maxChunk bytes
// that are joined once at the end: a stream past the cap fails after
// allocating about the cap, not a regrown buffer's multiples of it.
func readBody(r io.Reader, contentLength int64) ([]byte, error) {
	if contentLength > apk.MaxBaseAPKSize {
		return nil, errBodyTooLarge
	}
	size := 512
	if contentLength > 0 {
		// One spare byte lets the final Read report io.EOF without growing.
		size = int(contentLength) + 1
	}
	var (
		full  [][]byte
		total int
	)
	buf := make([]byte, 0, size)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if total+len(buf) > apk.MaxBaseAPKSize {
			return nil, errBodyTooLarge
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			full = append(full, buf)
			total += len(buf)
			buf = make([]byte, 0, min(2*cap(buf), maxChunk))
		}
	}
	if full == nil {
		return buf, nil
	}
	return bytes.Join(append(full, buf), nil), nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}

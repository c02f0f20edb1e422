package crawler

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/gaugenn/gaugenn/internal/playstore"
)

func startStore(t *testing.T, scale float64) (*playstore.Study, string) {
	t.Helper()
	study, err := playstore.GenerateStudy(playstore.DefaultConfig(21, scale))
	if err != nil {
		t.Fatal(err)
	}
	srv := playstore.NewServer(study.Snap21)
	base, shutdown, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown() })
	return study, base
}

func TestClientEndpoints(t *testing.T) {
	study, base := startStore(t, 0.02)
	c := NewClient(base)

	cats, err := c.Categories(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cats) != 33 {
		t.Fatalf("categories = %d", len(cats))
	}

	chart, err := c.TopChart(context.Background(), "COMMUNICATION", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(chart) == 0 || chart[0].Rank != 1 {
		t.Fatalf("chart: %+v", chart)
	}

	meta, err := c.Details(context.Background(), chart[0].Package)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Package != chart[0].Package || meta.Category != "COMMUNICATION" {
		t.Fatalf("details: %+v", meta)
	}

	apk, err := c.DownloadAPK(context.Background(), chart[0].Package)
	if err != nil {
		t.Fatal(err)
	}
	if len(apk) == 0 {
		t.Fatal("empty apk")
	}

	man, err := c.Delivery(context.Background(), chart[0].Package)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.OBBs) != 0 || len(man.AssetPacks) != 0 {
		t.Fatal("expected no companion files")
	}

	if _, err := c.Details(context.Background(), "ghost.pkg"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown package should 404: %v", err)
	}
	_ = study
}

func TestClientRequiresHeaders(t *testing.T) {
	_, base := startStore(t, 0.01)
	c := NewClient(base)
	c.Locale = "" // the store must reject locale-less requests
	if _, err := c.Categories(context.Background()); err == nil {
		t.Fatal("missing locale should fail")
	}
}

func TestCrawlerRun(t *testing.T) {
	study, base := startStore(t, 0.02)
	cr := &Crawler{
		Client:         NewClient(base),
		MaxPerCategory: 500,
	}
	apps := 0
	var apkTotal int64
	seenIdx := map[int]bool{}
	categories := map[string]bool{}
	res, err := cr.Run(context.Background(), "2021", func(idx int, meta AppMeta, apkBytes []byte) error {
		apps++
		apkTotal += int64(len(apkBytes))
		if meta.Package == "" || len(apkBytes) == 0 {
			t.Errorf("bad handle args for %+v", meta)
		}
		if meta.Category == "" {
			t.Errorf("no category for %+v", meta)
		}
		categories[meta.Category] = true
		if seenIdx[idx] {
			t.Errorf("index %d delivered twice", idx)
		}
		seenIdx[idx] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Apps != len(study.Snap21.Apps) {
		t.Fatalf("crawled %d apps, store has %d", res.Apps, len(study.Snap21.Apps))
	}
	if res.Apps != apps {
		t.Fatal("handler call count mismatch")
	}
	if res.Categories != 33 {
		t.Fatalf("categories = %d", res.Categories)
	}
	if res.CompanionFiles != 0 {
		t.Fatal("paper finding: no companion-file models")
	}
	if res.APKBytes != apkTotal {
		t.Fatal("APK byte accounting mismatch")
	}
	// Every app arrived with its chart's category.
	if !categories["COMMUNICATION"] {
		t.Fatalf("no COMMUNICATION app among categories %v", categories)
	}
	// Every crawl index in [0, total) was delivered exactly once.
	for i := 0; i < res.Apps; i++ {
		if !seenIdx[i] {
			t.Fatalf("index %d never delivered", i)
		}
	}
}

func TestCrawlerRunParallelMatchesSequential(t *testing.T) {
	study, base := startStore(t, 0.02)
	crawl := func(workers int) (Result, map[int]string) {
		t.Helper()
		var mu sync.Mutex
		pkgAt := map[int]string{}
		cr := &Crawler{Client: NewClient(base), MaxPerCategory: 500, Workers: workers}
		res, err := cr.Run(context.Background(), "par", func(idx int, meta AppMeta, apkBytes []byte) error {
			if len(apkBytes) == 0 {
				return fmt.Errorf("empty apk for %s", meta.Package)
			}
			mu.Lock()
			pkgAt[idx] = meta.Package
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, pkgAt
	}
	seqRes, seqPkgs := crawl(1)
	parRes, parPkgs := crawl(8)
	if seqRes.Apps != len(study.Snap21.Apps) || parRes.Apps != seqRes.Apps {
		t.Fatalf("app counts diverge: seq=%d par=%d store=%d", seqRes.Apps, parRes.Apps, len(study.Snap21.Apps))
	}
	if parRes.APKBytes != seqRes.APKBytes || parRes.CompanionFiles != seqRes.CompanionFiles {
		t.Fatalf("accounting diverges: seq=%+v par=%+v", seqRes, parRes)
	}
	if len(seqPkgs) != len(parPkgs) {
		t.Fatalf("handle count diverges: seq=%d par=%d", len(seqPkgs), len(parPkgs))
	}
	// The index -> package assignment is deterministic across worker counts.
	for idx, pkg := range seqPkgs {
		if parPkgs[idx] != pkg {
			t.Fatalf("index %d: seq=%s par=%s", idx, pkg, parPkgs[idx])
		}
	}
}

func TestCrawlerParallelStopsOnHandleError(t *testing.T) {
	_, base := startStore(t, 0.02)
	cr := &Crawler{Client: NewClient(base), MaxPerCategory: 500, Workers: 4}
	var calls atomic.Int64
	_, err := cr.Run(context.Background(), "err", func(idx int, meta AppMeta, apkBytes []byte) error {
		if calls.Add(1) == 3 {
			return fmt.Errorf("synthetic handler failure")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "synthetic handler failure") {
		t.Fatalf("handler error not surfaced: %v", err)
	}
}

func TestCrawlerChartCap(t *testing.T) {
	_, base := startStore(t, 0.02)
	cr := &Crawler{Client: NewClient(base), MaxPerCategory: 3}
	res, err := cr.Run(context.Background(), "capped", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Apps != 33*3 {
		t.Fatalf("capped crawl = %d apps, want %d", res.Apps, 33*3)
	}
}

func TestCrawlerProgress(t *testing.T) {
	_, base := startStore(t, 0.01)
	var last, total int
	cr := &Crawler{
		Client:         NewClient(base),
		MaxPerCategory: 2,
		Progress: func(done, t int) {
			last, total = done, t
		},
	}
	res, err := cr.Run(context.Background(), "p", nil)
	if err != nil {
		t.Fatal(err)
	}
	if last != res.Apps || total != res.Apps {
		t.Fatalf("progress: last=%d total=%d apps=%d", last, total, res.Apps)
	}
}

func TestClientBadBaseURL(t *testing.T) {
	c := NewClient("http://127.0.0.1:1")
	if _, err := c.Categories(context.Background()); err == nil {
		t.Fatal("unreachable store should fail")
	}
}

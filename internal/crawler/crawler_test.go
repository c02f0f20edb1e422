package crawler

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// TestCrawlerRun checks the crawl's listing: Charts returns every charted
// app once, in crawl order (categories in store order, apps in rank
// order), which is the generated snapshot's own order.
func TestCrawlerRun(t *testing.T) {
	study, base := startStore(t, 0.02)
	apps, err := NewClient(base).Charts(context.Background(), playstore.ChartDepth, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := study.Snap21.Apps
	if len(apps) != len(want) {
		t.Fatalf("listed %d apps, store has %d", len(apps), len(want))
	}
	for i, a := range want {
		if got := apps[i]; got.Package != a.Package || got.Category != string(a.Category) || got.Rank != a.Rank {
			t.Fatalf("listing[%d] = %+v, want %s (%s #%d)", i, got, a.Package, a.Category, a.Rank)
		}
	}
}

// TestCrawlerRunParallelMatchesSequential: the listing, and so every
// app's crawl index, does not depend on how many charts are fetched at
// once.
func TestCrawlerRunParallelMatchesSequential(t *testing.T) {
	_, base := startStore(t, 0.02)
	c := NewClient(base)
	seq, err := c.Charts(context.Background(), playstore.ChartDepth, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := c.Charts(context.Background(), playstore.ChartDepth, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) == 0 || !reflect.DeepEqual(seq, par) {
		t.Fatalf("listings diverge: %d apps with 1 worker, %d with 8", len(seq), len(par))
	}
}

// TestCrawlerParallelStopsOnChartError fails the first category's chart
// and holds every other chart request open until its client gives up:
// Charts returns only if the failure cancels the fetches in flight, and
// the fetches still queued never start.
func TestCrawlerParallelStopsOnChartError(t *testing.T) {
	study, err := playstore.GenerateStudy(playstore.DefaultConfig(21, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	store := playstore.NewServer(study.Snap21)
	failCat := string(playstore.Categories()[0])
	var charts atomic.Int64
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/fdfe/topCharts" {
			store.ServeHTTP(w, r)
			return
		}
		charts.Add(1)
		if r.URL.Query().Get("cat") == failCat {
			http.Error(w, "chart index unavailable", http.StatusNotFound)
			return
		}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(release) })

	const workers = 4
	type outcome struct {
		apps []AppMeta
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		apps, err := NewClient(srv.URL).Charts(context.Background(), playstore.ChartDepth, workers)
		ch <- outcome{apps, err}
	}()
	var o outcome
	select {
	case o = <-ch:
	case <-time.After(30 * time.Second):
		t.Fatal("a failed chart did not cancel the fetches in flight")
	}
	if o.err == nil || !strings.Contains(o.err.Error(), "chart "+failCat) || o.apps != nil {
		t.Fatalf("chart failure not surfaced: %d apps, err %v", len(o.apps), o.err)
	}
	if n := charts.Load(); n > workers {
		t.Fatalf("%d chart requests, want at most %d: queued fetches started after the failure", n, workers)
	}
}

// TestCrawlerChartCap: Charts lists each category's top depth apps.
func TestCrawlerChartCap(t *testing.T) {
	study, base := startStore(t, 0.02)
	apps, err := NewClient(base).Charts(context.Background(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, c := range playstore.Categories() {
		for _, a := range study.Snap21.TopChart(c, 3) {
			want = append(want, a.Package)
		}
	}
	var got []string
	for _, a := range apps {
		got = append(got, a.Package)
	}
	if len(got) != 33*3 || !reflect.DeepEqual(got, want) {
		t.Fatalf("capped listing = %d apps %v, want %d", len(got), got, 33*3)
	}
}

func TestClientBadBaseURL(t *testing.T) {
	c := NewClient("http://127.0.0.1:1")
	if _, err := c.Categories(context.Background()); err == nil {
		t.Fatal("unreachable store should fail")
	}
}

package core

import (
	"bytes"
	"context"
	"net/http"
	"net/url"
	"reflect"
	"sync"
	"testing"

	"github.com/gaugenn/gaugenn/internal/analysis"
	"github.com/gaugenn/gaugenn/internal/nn/zoo"
	"github.com/gaugenn/gaugenn/internal/playstore"
)

func smallStudy(t *testing.T, useHTTP bool) *StudyResult {
	t.Helper()
	cfg := DefaultConfig(77, 0.025)
	cfg.UseHTTP = useHTTP
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunStudyInProcess(t *testing.T) {
	res := smallStudy(t, false)
	d21 := res.Corpus21.Dataset()
	if d21.TotalApps == 0 || d21.TotalModels == 0 || d21.UniqueModels == 0 {
		t.Fatalf("degenerate study: %+v", d21)
	}
	d20 := res.Corpus20.Dataset()
	if d20.TotalModels >= d21.TotalModels {
		t.Fatal("2020 must hold fewer models than 2021")
	}
	// Every generated app of both snapshots reached its corpus.
	if want := len(res.Store.Snap20.Apps); d20.TotalApps != want {
		t.Fatalf("2020 corpus holds %d apps, snapshot %d", d20.TotalApps, want)
	}
	if want := len(res.Store.Snap21.Apps); d21.TotalApps != want {
		t.Fatalf("2021 corpus holds %d apps, snapshot %d", d21.TotalApps, want)
	}
}

// TestRunStudyHTTPAndInProcessAgree holds both app sources to one
// output: each snapshot's encoded corpus and every report table are
// byte-identical whether the apps were downloaded or packaged in process.
func TestRunStudyHTTPAndInProcessAgree(t *testing.T) {
	viaHTTP := smallStudy(t, true)
	inProc := smallStudy(t, false)
	for _, snap := range []struct {
		label string
		h, p  *analysis.Corpus
	}{
		{"2020", viaHTTP.Corpus20, inProc.Corpus20},
		{"2021", viaHTTP.Corpus21, inProc.Corpus21},
	} {
		hb, err := analysis.EncodeCorpus(snap.h)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := analysis.EncodeCorpus(snap.p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hb, pb) {
			t.Errorf("snapshot %s: encoded corpora differ (http %d bytes, in process %d bytes)", snap.label, len(hb), len(pb))
		}
	}
	ht := StudyTables(viaHTTP.Corpus20, viaHTTP.Corpus21)
	pt := StudyTables(inProc.Corpus20, inProc.Corpus21)
	for _, name := range TableNames() {
		if ht[name] != pt[name] {
			t.Errorf("%s differs:\nhttp:\n%s\nin process:\n%s", name, ht[name], pt[name])
		}
	}
}

// TestRunStudyHTTPTraffic pins the crawl's requests per snapshot: one
// category listing, one 500-deep chart per category, and one download
// and one delivery check per charted app — nothing else, nothing twice.
func TestRunStudyHTTPTraffic(t *testing.T) {
	var mu sync.Mutex
	seen := map[string][]*url.URL{}
	cfg := DefaultConfig(77, 0.025)
	cfg.UseHTTP = true
	cfg.Transport = func(label string) http.RoundTripper {
		return roundTripFunc(func(req *http.Request) (*http.Response, error) {
			mu.Lock()
			seen[label] = append(seen[label], req.URL)
			mu.Unlock()
			return http.DefaultTransport.RoundTrip(req)
		})
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		label string
		snap  *playstore.Snapshot
	}{{"2020", res.Store.Snap20}, {"2021", res.Store.Snap21}} {
		paths := map[string]int{}
		charts := map[string]int{}
		perApp := map[string]map[string]int{"/fdfe/purchase": {}, "/fdfe/delivery": {}}
		for _, u := range seen[s.label] {
			paths[u.Path]++
			q := u.Query()
			switch u.Path {
			case "/fdfe/topCharts":
				if n := q.Get("n"); n != "500" {
					t.Errorf("%s: chart %s fetched with n=%s, want 500", s.label, q.Get("cat"), n)
				}
				charts[q.Get("cat")]++
			case "/fdfe/purchase", "/fdfe/delivery":
				perApp[u.Path][q.Get("doc")]++
			}
		}
		cats := playstore.Categories()
		var charted []string
		for _, c := range cats {
			if charts[string(c)] != 1 {
				t.Errorf("%s: chart %s fetched %d times, want 1", s.label, c, charts[string(c)])
			}
			for _, a := range s.snap.TopChart(c, 500) {
				charted = append(charted, a.Package)
			}
		}
		want := map[string]int{
			"/fdfe/categories": 1,
			"/fdfe/topCharts":  len(cats),
			"/fdfe/purchase":   len(charted),
			"/fdfe/delivery":   len(charted),
		}
		if !reflect.DeepEqual(paths, want) {
			t.Errorf("%s: requests per path %v, want %v", s.label, paths, want)
		}
		for path, counts := range perApp {
			for _, pkg := range charted {
				if counts[pkg] != 1 {
					t.Errorf("%s: %s %s requested %d times, want 1", s.label, path, pkg, counts[pkg])
				}
			}
		}
	}
}

func TestRunStudyRejectsBadScale(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Fatal("zero scale must fail")
	}
}

func TestSelectBenchModels(t *testing.T) {
	res := smallStudy(t, false)
	models, err := SelectBenchModels(res.Corpus21, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) == 0 || len(models) > 4 {
		t.Fatalf("selected %d models", len(models))
	}
	for _, m := range models {
		if len(m.Bytes) == 0 || m.FLOPs <= 0 {
			t.Fatalf("bad bench model: %+v", m.Name)
		}
	}
	// Deterministic selection order.
	again, err := SelectBenchModels(res.Corpus21, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range models {
		if models[i].Checksum != again[i].Checksum {
			t.Fatal("selection order not deterministic")
		}
	}
	// Without graphs the selection must fail.
	cfg := DefaultConfig(77, 0.02)
	cfg.UseHTTP = false
	cfg.KeepGraphs = false
	bare, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SelectBenchModels(bare.Corpus21, 4); err == nil {
		t.Fatal("graph-less corpus should refuse selection")
	}
}

func TestDeviceRun(t *testing.T) {
	res := smallStudy(t, false)
	models, err := SelectBenchModels(res.Corpus21, 3)
	if err != nil {
		t.Fatal(err)
	}
	results, err := Bench(context.Background(), RunSpec{Device: "Q845", Backend: "cpu", Threads: 4, Batch: 1, Runs: 3}, models)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(models) {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Error != "" {
			t.Fatalf("%s: %s", r.ModelName, r.Error)
		}
		if r.MeanLatency() <= 0 {
			t.Fatalf("%s: zero latency", r.ModelName)
		}
	}
	if _, err := Bench(context.Background(), RunSpec{Device: "NOPE", Backend: "cpu", Threads: 4, Batch: 1, Runs: 1}, models); err == nil {
		t.Fatal("unknown device must fail")
	}
}

func TestDeliveryProbe(t *testing.T) {
	res := smallStudy(t, false)
	var pkg string
	for _, a := range res.Store.Snap21.Apps {
		if len(a.Models) > 0 {
			pkg = a.Package
			break
		}
	}
	if pkg == "" {
		t.Skip("no ML app at this scale")
	}
	same, err := DeliveryProbe(context.Background(), res.Store, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatal("store must serve identical APKs to old and new devices (Section 4.2)")
	}
}

func TestModelsByTask(t *testing.T) {
	res := smallStudy(t, false)
	byTask := ModelsByTask(res.Corpus21)
	if len(byTask) == 0 {
		t.Fatal("no task groups")
	}
	if len(byTask[zoo.TaskObjectDetection]) == 0 {
		t.Fatal("object detection group missing (the top Table 3 task)")
	}
}

func TestTemporalDiffRows(t *testing.T) {
	res := smallStudy(t, false)
	rows := TemporalDiffRows(res)
	if len(rows) == 0 {
		t.Fatal("no churn rows")
	}
}

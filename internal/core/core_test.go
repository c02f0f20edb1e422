package core

import (
	"context"
	"testing"

	"github.com/gaugenn/gaugenn/internal/nn/zoo"
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

func TestRunStudyHTTPAndInProcessAgree(t *testing.T) {
	viaHTTP := smallStudy(t, true)
	inProc := smallStudy(t, false)
	h, p := viaHTTP.Corpus21.Dataset(), inProc.Corpus21.Dataset()
	if h.TotalModels != p.TotalModels || h.UniqueModels != p.UniqueModels ||
		h.AppsWithModels != p.AppsWithModels {
		t.Fatalf("transport changed results: http=%+v inproc=%+v", h, p)
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

func TestEncodeTFLite(t *testing.T) {
	g, err := zoo.Build(zoo.Spec{Task: zoo.TaskFaceDetection, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeTFLite(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 || string(b[4:8]) != "TFL3" {
		t.Fatal("bad tflite bytes")
	}
}

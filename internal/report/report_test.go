package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	out := Table("title", []string{"a", "long-header"}, [][]string{
		{"x", "1"},
		{"longer-cell", "2"},
	})
	if !strings.HasPrefix(out, "title\n") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d", len(lines))
	}
	// All data lines equal width (alignment).
	if len(lines[1]) != len(lines[2]) {
		t.Fatalf("header %q vs separator %q misaligned", lines[1], lines[2])
	}
	if !strings.Contains(lines[2], "---") {
		t.Fatal("missing separator")
	}
}

func TestTableNoTitle(t *testing.T) {
	out := Table("", []string{"h"}, [][]string{{"v"}})
	if strings.HasPrefix(out, "\n") {
		t.Fatal("empty title should not add a blank line")
	}
}

func TestECDFSummary(t *testing.T) {
	out := ECDFSummary("lat", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, "ms")
	if !strings.Contains(out, "n=10") || !strings.Contains(out, "p50=") || !strings.Contains(out, "ms") {
		t.Fatalf("summary = %q", out)
	}
	if !strings.Contains(ECDFSummary("x", nil, "ms"), "no samples") {
		t.Fatal("empty sample handling")
	}
}

func TestComparisons(t *testing.T) {
	out := Comparisons("speedups", []Comparison{
		{Metric: "dsp", Paper: 5.72, Measured: 5.5, Unit: "x"},
		{Metric: "zero-paper", Paper: 0, Measured: 1, Unit: "x"},
	})
	if !strings.Contains(out, "dsp") || !strings.Contains(out, "0.96x") {
		t.Fatalf("comparisons = %q", out)
	}
	if !strings.Contains(out, "n/a") {
		t.Fatal("zero paper value should render n/a ratio")
	}
}

func TestCountBarsSorted(t *testing.T) {
	out := CountBars("apis", map[string]int{"small": 1, "big": 10, "mid": 5})
	bigIdx := strings.Index(out, "big")
	midIdx := strings.Index(out, "mid")
	smallIdx := strings.Index(out, "small")
	if !(bigIdx < midIdx && midIdx < smallIdx) {
		t.Fatalf("bars not sorted by count:\n%s", out)
	}
}

func TestDistCellsAndHeaders(t *testing.T) {
	cells := DistCells([]float64{1, 2, 3, 4}, "%.3g")
	if len(cells) != 4 {
		t.Fatalf("cells = %v", cells)
	}
	if cells[1] != "2.5" || cells[2] != "1" || cells[3] != "4" {
		t.Fatalf("median/min/max cells = %v", cells)
	}
	if !strings.Contains(cells[0], "±") || !strings.HasPrefix(cells[0], "2.5±") {
		t.Fatalf("avg cell = %q", cells[0])
	}
	empty := DistCells(nil, "%.3g")
	for _, c := range empty {
		if c != "-" {
			t.Fatalf("empty cells = %v", empty)
		}
	}
	h := DistHeaders("mAh")
	if len(h) != 4 || h[0] != "mAh avg±std" || h[1] != "mAh med" {
		t.Fatalf("headers = %v", h)
	}
}

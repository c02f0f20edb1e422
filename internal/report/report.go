// Package report renders the study's tables and figure series as aligned
// text — the output layer that regenerates each Table and Figure of the
// paper's evaluation in a terminal-friendly form.
package report

import (
	"fmt"
	"sort"
	"strings"

	"github.com/gaugenn/gaugenn/internal/stats"
)

// Table renders an aligned ASCII table.
func Table(title string, headers []string, rows [][]string) string {
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
	return b.String()
}

// ECDFSummary renders a distribution as its key quantiles, the textual
// stand-in for an ECDF plot.
func ECDFSummary(name string, xs []float64, unit string) string {
	if len(xs) == 0 {
		return fmt.Sprintf("%s: (no samples)\n", name)
	}
	e := stats.NewECDF(xs)
	return fmt.Sprintf("%s: n=%d p10=%.3g p25=%.3g p50=%.3g p75=%.3g p90=%.3g max=%.3g %s\n",
		name, e.Len(),
		e.Quantile(0.10), e.Quantile(0.25), e.Quantile(0.50),
		e.Quantile(0.75), e.Quantile(0.90), e.Quantile(1), unit)
}

// DistCells renders a sample set as the paper's Table 4 presentation —
// "avg±std", median, min, max — formatting each number with format (e.g.
// "%.3g"). Empty samples render as dashes so sparse matrix cells stay
// aligned.
func DistCells(xs []float64, format string) []string {
	if len(xs) == 0 {
		return []string{"-", "-", "-", "-"}
	}
	s := stats.MustSummarize(xs)
	f := func(v float64) string { return fmt.Sprintf(format, v) }
	return []string{
		f(s.Mean) + "±" + f(s.StdDev),
		f(s.Median),
		f(s.Min),
		f(s.Max),
	}
}

// DistHeaders returns the column headers matching DistCells, prefixed with
// the metric label (e.g. "lat ms" -> "lat ms avg±std").
func DistHeaders(label string) []string {
	return []string{label + " avg±std", label + " med", label + " min", label + " max"}
}

// Comparison is a paper-vs-measured line item, for printing a reproduced
// result beside the paper's.
type Comparison struct {
	Metric   string
	Paper    float64
	Measured float64
	Unit     string
}

// Comparisons renders paper-vs-measured rows with the ratio between them.
func Comparisons(title string, items []Comparison) string {
	rows := make([][]string, 0, len(items))
	for _, it := range items {
		ratio := "n/a"
		if it.Paper != 0 {
			ratio = fmt.Sprintf("%.2fx", it.Measured/it.Paper)
		}
		rows = append(rows, []string{
			it.Metric,
			fmt.Sprintf("%.4g %s", it.Paper, it.Unit),
			fmt.Sprintf("%.4g %s", it.Measured, it.Unit),
			ratio,
		})
	}
	return Table(title, []string{"metric", "paper", "measured", "measured/paper"}, rows)
}

// CountBars renders a sorted name->count map as a bar list (Figures 4, 5
// and 15 are count-bar charts).
func CountBars(title string, counts map[string]int) string {
	type kv struct {
		k string
		v int
	}
	items := make([]kv, 0, len(counts))
	maxV := 0
	for k, v := range counts {
		items = append(items, kv{k, v})
		if v > maxV {
			maxV = v
		}
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].v != items[j].v {
			return items[i].v > items[j].v
		}
		return items[i].k < items[j].k
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, it := range items {
		bar := ""
		if maxV > 0 {
			bar = strings.Repeat("#", it.v*40/maxV)
		}
		fmt.Fprintf(&b, "  %-32s %-40s %d\n", it.k, bar, it.v)
	}
	return b.String()
}

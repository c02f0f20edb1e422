package report

import (
	"fmt"

	"github.com/gaugenn/gaugenn/internal/exec"
)

// RooflineTable renders the interpreter's per-class roofline: where each
// operator class sits between compute-bound (GFLOP/s) and memory-bound
// (GB/s), with its share of measured time. The rows come straight from
// Instance.Stats(); classes that never executed are absent.
func RooflineTable(title string, stats []exec.ClassStat) string {
	if len(stats) == 0 {
		return ""
	}
	var totalNS int64
	for _, s := range stats {
		totalNS += s.Nanos
	}
	headers := []string{"class", "ops/run", "time ms", "time %", "est GFLOP/s", "est GB/s"}
	var rows [][]string
	for _, s := range stats {
		share := 0.0
		if totalNS > 0 {
			share = 100 * float64(s.Nanos) / float64(totalNS)
		}
		rows = append(rows, []string{
			s.Class,
			fmt.Sprint(s.Ops),
			fmt.Sprintf("%.3f", float64(s.Nanos)/1e6),
			fmt.Sprintf("%.1f", share),
			fmt.Sprintf("%.3g", s.GFLOPS),
			fmt.Sprintf("%.3g", s.GBps),
		})
	}
	return Table(title, headers, rows)
}

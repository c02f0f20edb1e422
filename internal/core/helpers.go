package core

import "github.com/gaugenn/gaugenn/internal/analysis"

// TemporalDiffRows computes the Figure 5 churn between a study's two
// snapshots.
func TemporalDiffRows(res *StudyResult) []analysis.ChurnRow {
	return analysis.TemporalDiff(res.Corpus20, res.Corpus21)
}

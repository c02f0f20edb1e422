// Package stats provides the small statistical toolbox gaugeNN uses to
// summarise measurement distributions: empirical CDFs, percentiles,
// least-squares line fits and bounded Zipf sampling for popularity
// modelling.
//
// All functions are deterministic and allocation-conscious; none of them
// mutate their input slices unless documented otherwise.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by summaries that are undefined on empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Summary holds the usual scalar descriptions of a sample.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	Min    float64
	Max    float64
	StdDev float64
	Sum    float64
}

// Summarize computes a Summary of xs. It returns ErrEmpty when xs is empty.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	s.Median = Percentile(xs, 50)
	return s, nil
}

// MustSummarize is Summarize for callers that have already checked len>0.
// It panics on an empty sample.
func MustSummarize(xs []float64) Summary {
	s, err := Summarize(xs)
	if err != nil {
		panic(err)
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the 50th percentile of xs, or 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. The input is not modified.
// It returns 0 for an empty slice and clamps p into [0,100].
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// ECDF is an empirical cumulative distribution function over a sample.
// The zero value is unusable; construct with NewECDF.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs. The input is copied.
func NewECDF(xs []float64) *ECDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns P(X <= x), the fraction of the sample at or below x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// sort.SearchFloat64s returns the first index with sorted[i] >= x; we
	// want the count of elements <= x, so search for the first element > x.
	n := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(n) / float64(len(e.sorted))
}

// Quantile returns the smallest sample value v with At(v) >= q, clamping q
// into (0,1]. It returns 0 on an empty sample.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		q = 1 / float64(len(e.sorted))
	}
	if q > 1 {
		q = 1
	}
	idx := int(math.Ceil(q*float64(len(e.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(e.sorted) {
		idx = len(e.sorted) - 1
	}
	return e.sorted[idx]
}

// Len reports the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }

// Points returns (x, P(X<=x)) pairs for each distinct sample value, suitable
// for plotting the ECDF as a step function.
func (e *ECDF) Points() (xs, ps []float64) {
	n := len(e.sorted)
	for i := 0; i < n; i++ {
		if i+1 < n && e.sorted[i+1] == e.sorted[i] {
			continue // keep only the last occurrence of a tie
		}
		xs = append(xs, e.sorted[i])
		ps = append(ps, float64(i+1)/float64(n))
	}
	return xs, ps
}

// LinearFit is the least-squares line y = Slope*x + Intercept with its
// coefficient of determination.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// FitLine fits a least-squares line to (xs[i], ys[i]). The slices must have
// equal length of at least 2.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: mismatched lengths %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return LinearFit{}, errors.New("stats: need at least 2 points to fit a line")
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinearFit{}, errors.New("stats: degenerate x values")
	}
	f := LinearFit{}
	f.Slope = (n*sxy - sx*sy) / den
	f.Intercept = (sy - f.Slope*sx) / n
	ssTot := syy - sy*sy/n
	var ssRes float64
	for i := range xs {
		r := ys[i] - (f.Slope*xs[i] + f.Intercept)
		ssRes += r * r
	}
	if ssTot > 0 {
		f.R2 = 1 - ssRes/ssTot
	} else {
		f.R2 = 1
	}
	return f, nil
}

// Ratio returns a/b, guarding against division by zero (returns +Inf for
// positive a, 0 otherwise). Used for the paper's "X× faster" comparisons.
func Ratio(a, b float64) float64 {
	if b == 0 {
		if a > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return a / b
}

package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeBasics(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 || s.Sum != 15 {
		t.Fatalf("unexpected summary: %+v", s)
	}
	if !almostEqual(s.StdDev, math.Sqrt(2.5), 1e-12) {
		t.Fatalf("stddev = %v, want sqrt(2.5)", s.StdDev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := MustSummarize([]float64{7})
	if s.StdDev != 0 || s.Mean != 7 || s.Median != 7 {
		t.Fatalf("single-element summary wrong: %+v", s)
	}
}

func TestMustSummarizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSummarize on empty sample should panic")
		}
	}()
	MustSummarize(nil)
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct {
		p, want float64
	}{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5}, {75, 32.5},
		{-5, 10}, {150, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestECDFAt(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFQuantile(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	if got := e.Quantile(0.5); got != 2 {
		t.Fatalf("Quantile(0.5) = %v, want 2", got)
	}
	if got := e.Quantile(1); got != 4 {
		t.Fatalf("Quantile(1) = %v, want 4", got)
	}
	if got := e.Quantile(0); got != 1 {
		t.Fatalf("Quantile(0) clamps to min, got %v", got)
	}
}

func TestECDFPointsDeduplicated(t *testing.T) {
	e := NewECDF([]float64{5, 5, 5, 1})
	xs, ps := e.Points()
	if len(xs) != 2 || xs[0] != 1 || xs[1] != 5 {
		t.Fatalf("Points xs = %v", xs)
	}
	if ps[len(ps)-1] != 1 {
		t.Fatalf("last ECDF point must be 1, got %v", ps)
	}
}

// Property: ECDF is monotone non-decreasing and bounded in [0,1].
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, probe []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		e := NewECDF(xs)
		clean := make([]float64, 0, len(probe))
		for _, p := range probe {
			if !math.IsNaN(p) && !math.IsInf(p, 0) {
				clean = append(clean, p)
			}
		}
		sort.Float64s(clean)
		prev := 0.0
		for _, p := range clean {
			v := e.At(p)
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	f, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(f.Slope, 2, 1e-12) || !almostEqual(f.Intercept, 1, 1e-12) {
		t.Fatalf("fit = %+v", f)
	}
	if !almostEqual(f.R2, 1, 1e-12) {
		t.Fatalf("R2 = %v, want 1", f.R2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, err := FitLine([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched lengths should error")
	}
	if _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point should error")
	}
	if _, err := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("degenerate x should error")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(4, 2) != 2 {
		t.Fatal("Ratio(4,2)")
	}
	if !math.IsInf(Ratio(1, 0), 1) {
		t.Fatal("Ratio(1,0) should be +Inf")
	}
	if Ratio(0, 0) != 0 {
		t.Fatal("Ratio(0,0) should be 0")
	}
}

func TestZipfValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := NewZipf(rng, 1, 0); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, err := NewZipf(rng, 0, 5); err == nil {
		t.Fatal("s=0 must error")
	}
	if _, err := NewZipf(nil, 1, 5); err == nil {
		t.Fatal("nil rng must error")
	}
}

func TestZipfHeadMass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	z, err := NewZipf(rng, 1.2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// With s=1.2 the top 10% of ranks must hold well over half the mass.
	if z.CDF(100) < 0.5 {
		t.Fatalf("head mass CDF(100) = %v, want >= 0.5", z.CDF(100))
	}
	if z.CDF(1000) != 1 {
		t.Fatalf("CDF(n) = %v, want 1", z.CDF(1000))
	}
	if z.CDF(0) != 0 {
		t.Fatal("CDF(0) must be 0")
	}
}

func TestZipfSamplingMatchesCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	z, err := NewZipf(rng, 1.0, 50)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 20000
	atOrBelow10 := 0
	for i := 0; i < draws; i++ {
		r := z.Rank()
		if r < 1 || r > 50 {
			t.Fatalf("rank %d out of support", r)
		}
		if r <= 10 {
			atOrBelow10++
		}
	}
	got := float64(atOrBelow10) / draws
	want := z.CDF(10)
	if !almostEqual(got, want, 0.02) {
		t.Fatalf("empirical CDF(10) = %v, analytic %v", got, want)
	}
}

func TestDownloadsForRankMonotone(t *testing.T) {
	prev := int64(math.MaxInt64)
	for rank := 1; rank <= 100; rank++ {
		d := DownloadsForRank(rank, 1e9, 1.1)
		if d > prev {
			t.Fatalf("downloads must be non-increasing in rank: rank %d has %d > %d", rank, d, prev)
		}
		if d < 1 {
			t.Fatalf("downloads must be at least 1, got %d", d)
		}
		prev = d
	}
	if DownloadsForRank(0, 100, 1) != DownloadsForRank(1, 100, 1) {
		t.Fatal("rank < 1 should clamp to 1")
	}
}

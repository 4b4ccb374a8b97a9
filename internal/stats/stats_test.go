package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 || s.Sum != 40 {
		t.Fatalf("bad summary: %+v", s)
	}
	// Sample stddev of that classic set is sqrt(32/7).
	if !almostEqual(s.Stddev, math.Sqrt(32.0/7.0), 1e-12) {
		t.Fatalf("stddev = %v", s.Stddev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stddev != 0 || s.Mean != 3.5 || s.Min != 3.5 || s.Max != 3.5 {
		t.Fatalf("bad single summary: %+v", s)
	}
}

func TestMeanMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Mean(xs) != 2.4 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Min(xs) != -1 {
		t.Fatalf("Min = %v", Min(xs))
	}
	if Mean(nil) != 0 || Min(nil) != 0 {
		t.Fatal("empty-slice helpers should return 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, c.want, 1e-12) {
			t.Fatalf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Fatal("want ErrEmpty")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Fatal("want range error")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	got, err := Percentile([]float64{10, 20}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got != 15 {
		t.Fatalf("interpolated median = %v, want 15", got)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	if c.At(0.5) != 0 {
		t.Fatalf("At(0.5) = %v", c.At(0.5))
	}
	if c.At(2) != 0.5 {
		t.Fatalf("At(2) = %v", c.At(2))
	}
	if c.At(4) != 1 || c.At(100) != 1 {
		t.Fatal("upper tail wrong")
	}
	if c.Max() != 4 {
		t.Fatalf("Max = %v", c.Max())
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if q := c.Quantile(0.2); q != 10 {
		t.Fatalf("Q(0.2) = %v", q)
	}
	if q := c.Quantile(0.5); q != 30 {
		t.Fatalf("Q(0.5) = %v", q)
	}
	if q := c.Quantile(1.0); q != 50 {
		t.Fatalf("Q(1.0) = %v", q)
	}
	if q := c.Quantile(0); q != 10 {
		t.Fatalf("Q(0) = %v", q)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{0, 10})
	pts := c.Points(11)
	if len(pts) != 11 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[0].X != 0 || pts[10].X != 10 {
		t.Fatalf("endpoints wrong: %+v %+v", pts[0], pts[10])
	}
	if pts[10].Y != 1 {
		t.Fatalf("last Y = %v", pts[10].Y)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Fatal("CDF points not monotone")
		}
	}
	if NewCDF(nil).Points(5) != nil {
		t.Fatal("empty CDF should yield nil points")
	}
}

// Property: CDF.At is monotone non-decreasing and bounded in [0,1].
func TestQuickCDFMonotone(t *testing.T) {
	f := func(raw []float64, probesRaw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		probes := append([]float64(nil), probesRaw...)
		for i, p := range probes {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				probes[i] = 0
			}
		}
		sort.Float64s(probes)
		prev := 0.0
		for _, p := range probes {
			y := c.At(p)
			if y < prev || y < 0 || y > 1 {
				return false
			}
			prev = y
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Percentile(xs, p) lies within [Min(xs), Max(xs)].
func TestQuickPercentileBounds(t *testing.T) {
	f := func(raw []float64, pRaw uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p := float64(pRaw) / 255 * 100
		got, err := Percentile(xs, p)
		if err != nil {
			return false
		}
		return got >= Min(xs)-1e-9 && got <= slices.Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantile-then-CDF round trip: At(Quantile(q)) >= q.
func TestQuickQuantileRoundTrip(t *testing.T) {
	f := func(raw []float64, qRaw uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q := float64(qRaw%100+1) / 100
		c := NewCDF(xs)
		return c.At(c.Quantile(q)) >= q-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

package stats

import (
	"math/rand"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]int{4, 1, 7, 2})
	if s.Count != 4 || s.Min != 1 || s.Max != 7 || s.Mean != 3.5 {
		t.Errorf("Summarize = %+v", s)
	}
	if z := Summarize(nil); z != (Summary{}) {
		t.Errorf("Summarize(nil) = %+v", z)
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]int{1, 1, 2, 5, 10})
	if c.n != 5 {
		t.Fatalf("n = %d", c.n)
	}
	cases := []struct {
		x    int
		want int
	}{
		{0, 0}, {1, 2}, {2, 3}, {4, 3}, {5, 4}, {10, 5}, {100, 5},
	}
	for _, cse := range cases {
		if got := c.atMost(cse.x); got != cse.want {
			t.Errorf("AtMost(%d) = %d, want %d", cse.x, got, cse.want)
		}
	}
	if got := c.FractionAtMost(2); got != 0.6 {
		t.Errorf("FractionAtMost(2) = %v", got)
	}
	if got := NewCDF(nil).FractionAtMost(3); got != 0 {
		t.Errorf("empty FractionAtMost = %v", got)
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if got := c.Quantile(0.5); got != 5 {
		t.Errorf("Quantile(0.5) = %d", got)
	}
	if got := c.Quantile(1.0); got != 10 {
		t.Errorf("Quantile(1.0) = %d", got)
	}
	if got := c.Quantile(0.01); got != 1 {
		t.Errorf("Quantile(0.01) = %d", got)
	}
}

func TestCDFQuantilePanics(t *testing.T) {
	for _, q := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", q)
				}
			}()
			NewCDF([]int{1}).Quantile(q)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Quantile on empty CDF did not panic")
			}
		}()
		NewCDF(nil).Quantile(0.5)
	}()
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]int{3, 1, 3, 2})
	pts := c.Points()
	want := []Point{{1, 0.25}, {2, 0.5}, {3, 1.0}}
	if len(pts) != len(want) {
		t.Fatalf("Points = %v", pts)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Errorf("Points[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestCDFMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]int, 200)
	for i := range xs {
		xs[i] = rng.Intn(50)
	}
	c := NewCDF(xs)
	prev := 0.0
	for x := -1; x <= 51; x++ {
		f := c.FractionAtMost(x)
		if f < prev {
			t.Fatalf("CDF not monotonic at %d: %v < %v", x, f, prev)
		}
		prev = f
	}
	if c.FractionAtMost(51) != 1.0 {
		t.Error("CDF does not reach 1")
	}
}

func TestFreq(t *testing.T) {
	f := NewFreq[string]()
	f.Add("a")
	f.Add("b")
	f.Add("a")
	f.AddN("c", 5)
	pairs := f.SortedByCount(func(a, b string) bool { return a < b })
	if pairs[0].Key != "c" || pairs[0].Count != 5 {
		t.Errorf("pairs[0] = %+v", pairs[0])
	}
	if pairs[1].Key != "a" || pairs[2].Key != "b" {
		t.Errorf("tie-break order wrong: %+v", pairs)
	}
}

func TestFreqTieBreakDeterministic(t *testing.T) {
	f := NewFreq[string]()
	for _, k := range []string{"z", "y", "x"} {
		f.Add(k)
	}
	for i := 0; i < 10; i++ {
		pairs := f.SortedByCount(func(a, b string) bool { return a < b })
		if pairs[0].Key != "x" || pairs[1].Key != "y" || pairs[2].Key != "z" {
			t.Fatalf("non-deterministic tie break: %+v", pairs)
		}
	}
}

// Package stats provides the small statistical summaries the evaluation
// harness reports: frequency distributions, cumulative distributions
// (Figure 2 of the paper is a cumulative frequency distribution of HTTP
// host destinations per application), and scalar summaries.
package stats

import (
	"fmt"
	"sort"
)

// Summary holds scalar statistics over a sample of integers.
type Summary struct {
	Count int
	Min   int
	Max   int
	Mean  float64
}

// Summarize computes Count/Min/Max/Mean of xs. An empty sample returns the
// zero Summary.
func Summarize(xs []int) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{Count: len(xs), Min: xs[0], Max: xs[0]}
	total := 0
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		total += x
	}
	s.Mean = float64(total) / float64(len(xs))
	return s
}

// CDF is an empirical cumulative distribution over integer values.
type CDF struct {
	n      int
	values []int // sorted
}

// NewCDF builds the empirical CDF of xs.
func NewCDF(xs []int) *CDF {
	vs := append([]int(nil), xs...)
	sort.Ints(vs)
	return &CDF{n: len(vs), values: vs}
}

// atMost returns the number of samples with value <= x.
func (c *CDF) atMost(x int) int {
	return sort.SearchInts(c.values, x+1)
}

// FractionAtMost returns the fraction of samples with value <= x in [0, 1].
// An empty CDF returns 0.
func (c *CDF) FractionAtMost(x int) float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.atMost(x)) / float64(c.n)
}

// Quantile returns the smallest value v such that at least q of the mass is
// <= v, for q in (0, 1]. It panics on an empty CDF or out-of-range q.
func (c *CDF) Quantile(q float64) int {
	if c.n == 0 {
		panic("stats: Quantile of empty CDF")
	}
	if q <= 0 || q > 1 {
		panic(fmt.Sprintf("stats: Quantile(%v) out of range", q))
	}
	idx := int(q*float64(c.n)+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= c.n {
		idx = c.n - 1
	}
	return c.values[idx]
}

// Points returns the CDF as (value, cumulative fraction) pairs at each
// distinct value, suitable for plotting Figure 2.
func (c *CDF) Points() []Point {
	var out []Point
	for i := 0; i < c.n; {
		v := c.values[i]
		j := i
		for j < c.n && c.values[j] == v {
			j++
		}
		out = append(out, Point{Value: v, Fraction: float64(j) / float64(c.n)})
		i = j
	}
	return out
}

// Point is one step of an empirical CDF.
type Point struct {
	Value    int
	Fraction float64
}

// Freq counts occurrences of each key.
type Freq[K comparable] map[K]int

// NewFreq returns an empty frequency counter.
func NewFreq[K comparable]() Freq[K] { return make(Freq[K]) }

// Add increments the count for k.
func (f Freq[K]) Add(k K) { f[k]++ }

// AddN increments the count for k by n.
func (f Freq[K]) AddN(k K, n int) { f[k] += n }

// Pair is a key with its count.
type Pair[K comparable] struct {
	Key   K
	Count int
}

// SortedByCount returns pairs in descending count order; ties are resolved
// by the caller-provided less function on keys for determinism.
func (f Freq[K]) SortedByCount(keyLess func(a, b K) bool) []Pair[K] {
	out := make([]Pair[K], 0, len(f))
	for k, n := range f {
		out = append(out, Pair[K]{Key: k, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return keyLess(out[i].Key, out[j].Key)
	})
	return out
}

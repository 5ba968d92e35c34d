// Package ncd implements the normalized compression distance (NCD) used by
// the HTTP packet content distance (§IV-C of the paper).
//
// For strings x and y the paper defines
//
//	ncd(x, y) = (C(xy) − min(C(x), C(y))) / max(C(x), C(y))
//
// where C(s) is the length of the compressed form of s. NCD approximates
// the normalized information distance of Kolmogorov complexity theory
// (Cilibrasi [15]): similar strings compress well together, so the
// concatenation adds little beyond the larger of the two parts.
//
// The package exposes a Compressor interface, a DEFLATE implementation
// backed by compress/flate (the only stdlib general-purpose compressor),
// a memoizing wrapper that caches C(x) for repeated pairwise work such as
// distance-matrix construction, and DistanceLens for callers that keep
// C(x) next to x themselves.
package ncd

import (
	"compress/flate"
	"sync"
)

// Compressor measures the compressed length of a byte string. Implementations
// must be safe for concurrent use.
type Compressor interface {
	// CompressedLen returns the length in bytes of the compressed form of p.
	CompressedLen(p []byte) int
	// CompressedLen2 returns the compressed length of the concatenation
	// p followed by q, without materializing the concatenation.
	CompressedLen2(p, q []byte) int
}

// countingWriter counts bytes written and discards them.
type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// Flate is a Compressor backed by compress/flate. The zero value is not
// usable; construct with NewFlate.
type Flate struct {
	level int
	pool  sync.Pool // of *flateState
}

type flateState struct {
	w *flate.Writer
	n countingWriter
}

// NewFlate returns a DEFLATE compressor at the given level
// (flate.BestSpeed .. flate.BestCompression). The paper does not name its
// compressor; DEFLATE at BestCompression is the conventional NCD choice and
// the repository default.
func NewFlate(level int) *Flate {
	f := &Flate{level: level}
	f.pool.New = func() any {
		st := &flateState{}
		w, err := flate.NewWriter(&st.n, level)
		if err != nil {
			// Only possible for an invalid level; validated below.
			panic(err)
		}
		st.w = w
		return st
	}
	// Validate the level eagerly so NewFlate panics instead of first use.
	st := f.pool.Get().(*flateState)
	f.pool.Put(st)
	return f
}

// Default returns the repository's default compressor: DEFLATE at
// BestCompression.
func Default() *Flate { return NewFlate(flate.BestCompression) }

// CompressedLen implements Compressor.
func (f *Flate) CompressedLen(p []byte) int {
	return f.CompressedLen2(p, nil)
}

// CompressedLen2 implements Compressor.
func (f *Flate) CompressedLen2(p, q []byte) int {
	st := f.pool.Get().(*flateState)
	st.n = 0
	st.w.Reset(&st.n)
	if len(p) > 0 {
		st.w.Write(p) // flate writes to countingWriter cannot fail
	}
	if len(q) > 0 {
		st.w.Write(q)
	}
	st.w.Close()
	n := int(st.n)
	f.pool.Put(st)
	return n
}

// Distance returns the normalized compression distance between x and y
// under compressor c, following the paper's formula. The result is
// approximately in [0, 1]; real compressors can exceed 1 slightly. Two empty
// strings have distance 0.
func Distance(c Compressor, x, y []byte) float64 {
	if len(x) == 0 && len(y) == 0 {
		return 0
	}
	return DistanceLens(c, x, y, c.CompressedLen(x), c.CompressedLen(y))
}

// DistanceLens is Distance with the single-string compressed lengths
// cx = C(x) and cy = C(y) supplied by the caller, so a caller that keeps
// them per string pays one compression (of the concatenation) per pair.
// Given the true lengths it returns exactly what Distance returns.
func DistanceLens(c Compressor, x, y []byte, cx, cy int) float64 {
	if len(x) == 0 && len(y) == 0 {
		return 0
	}
	cxy := c.CompressedLen2(x, y)
	mn, mx := cx, cy
	if mn > mx {
		mn, mx = mx, mn
	}
	if mx == 0 {
		return 0
	}
	d := float64(cxy-mn) / float64(mx)
	if d < 0 {
		d = 0
	}
	return d
}

// Cache memoizes single-string compressed lengths in front of an underlying
// compressor. Concatenation lengths are not cached (each pair is visited
// once during matrix construction), but the two single-string terms of every
// NCD evaluation hit the cache after first use. Cache is safe for
// concurrent use.
type Cache struct {
	c  Compressor
	mu sync.RWMutex
	m  map[string]int
}

// NewCache wraps c with a memoizing layer.
func NewCache(c Compressor) *Cache {
	return &Cache{c: c, m: make(map[string]int)}
}

// CompressedLen implements Compressor with memoization.
func (k *Cache) CompressedLen(p []byte) int {
	key := string(p)
	k.mu.RLock()
	n, ok := k.m[key]
	k.mu.RUnlock()
	if ok {
		return n
	}
	n = k.c.CompressedLen(p)
	k.mu.Lock()
	k.m[key] = n
	k.mu.Unlock()
	return n
}

// CompressedLen2 implements Compressor; concatenations are not memoized.
func (k *Cache) CompressedLen2(p, q []byte) int {
	return k.c.CompressedLen2(p, q)
}

// Len reports the number of memoized entries.
func (k *Cache) Len() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return len(k.m)
}

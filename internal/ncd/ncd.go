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
// The package exposes a Compressor interface, Flate — C(s) as the length
// of DEFLATE at BestCompression, counted by a length-only port of
// compress/flate (deflate.go) that returns exactly compress/flate's
// length — and DistanceLens for callers that keep C(x) next to x
// themselves.
package ncd

import "sync"

// Compressor measures the compressed length of a byte string. Implementations
// must be safe for concurrent use.
type Compressor interface {
	// CompressedLen returns the length in bytes of the compressed form of p.
	CompressedLen(p []byte) int
	// CompressedLen2 returns the compressed length of the concatenation
	// p followed by q, without materializing the concatenation.
	CompressedLen2(p, q []byte) int
}

// Flate is the DEFLATE Compressor: CompressedLen2(p, q) is the length
// of what compress/flate's NewWriter at BestCompression, Write(p),
// Write(q) and Close emit. The paper does not name its compressor;
// DEFLATE at BestCompression is the conventional NCD choice. Flate is
// safe for concurrent use and makes no allocation per call once its
// pool is warm.
type Flate struct {
	pool sync.Pool // of *deflater
}

// Default returns the repository's compressor.
func Default() *Flate { return &Flate{} }

// CompressedLen implements Compressor.
func (f *Flate) CompressedLen(p []byte) int {
	return f.CompressedLen2(p, nil)
}

// CompressedLen2 implements Compressor.
func (f *Flate) CompressedLen2(p, q []byte) int {
	d, _ := f.pool.Get().(*deflater)
	if d == nil {
		d = new(deflater)
	}
	n := d.compressedLen(p, q)
	f.pool.Put(d)
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
// them per string pays one compression (of the concatenation) per pair,
// and none when one side is empty. Given the true lengths it returns
// exactly what Distance returns.
func DistanceLens(c Compressor, x, y []byte, cx, cy int) float64 {
	var cxy int
	switch {
	case len(x) == 0 && len(y) == 0:
		return 0
	case len(x) == 0: // x·y is y
		cxy = cy
	case len(y) == 0: // x·y is x
		cxy = cx
	default:
		cxy = c.CompressedLen2(x, y)
	}
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

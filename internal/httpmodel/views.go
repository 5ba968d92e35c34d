package httpmodel

// Decode views: transformed renderings of a packet's content fields that
// the matcher can scan in addition to the raw bytes, so signatures catch
// payloads an app base64/hex/URL-encodes or gzip-compresses before
// exfiltration. Views are opt-in per signature — decoding costs — and
// every decoder is bounded and panic-free on hostile input: output is
// capped at maxViewOutput bytes per field per view across at most
// maxViewSpans spans, and a malformed encoding yields whatever prefix
// decoded cleanly rather than an error. Views are single-level: a view is
// decoded from the raw field only, never from another view's output.

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"encoding/hex"
)

// View identifies one content transformation.
type View uint8

const (
	ViewBase64 View = iota
	ViewHex
	ViewURL
	ViewGzip
	// NumViews bounds per-view arrays indexed by View.
	NumViews
)

// ViewMask is a bitmask of Views.
type ViewMask uint8

// mask returns the single-view mask.
func (v View) mask() ViewMask { return 1 << v }

// Has reports whether the mask includes v.
func (m ViewMask) Has(v View) bool { return m&v.mask() != 0 }

// viewNames holds each view's canonical wire name, indexed by View.
var viewNames = [NumViews]string{
	ViewBase64: "base64",
	ViewHex:    "hex",
	ViewURL:    "url",
	ViewGzip:   "gzip",
}

// String returns the canonical wire name of the view.
func (v View) String() string {
	if v < NumViews {
		return viewNames[v]
	}
	return "view?"
}

// ParseView resolves a wire view name.
func ParseView(name string) (View, bool) {
	for v, n := range viewNames {
		if n == name {
			return View(v), true
		}
	}
	return 0, false
}

// ViewMaskOf folds the named views into a mask, ignoring unknown names
// (an unknown view can never be scanned, so it simply contributes no
// bits; publish-time validation rejects it before it gets here).
func ViewMaskOf(names []string) ViewMask {
	var m ViewMask
	for _, n := range names {
		if v, ok := ParseView(n); ok {
			m |= v.mask()
		}
	}
	return m
}

const (
	// maxViewOutput caps the decoded bytes one field yields under one
	// view, no matter what the input claims (a gzip bomb decodes to at
	// most this much).
	maxViewOutput = 64 << 10
	// maxViewSpans caps how many encoded spans of one field are decoded
	// under one view.
	maxViewSpans = 16
	// minEncodedSpan is the shortest base64/hex run worth decoding:
	// shorter runs are everywhere in plain text and would only buy
	// garbage spans.
	minEncodedSpan = 16
	// minDecodedEmit drops decoded spans too short to ever contain a
	// token worth matching.
	minDecodedEmit = 4
)

// ViewScratch holds the reusable buffers one decoding pass needs: the
// normalize and decode buffers and a resettable gzip reader. A zero
// ViewScratch is ready to use; after warm-up, decoding through it
// allocates nothing.
type ViewScratch struct {
	norm  []byte // base64 normalization buffer
	dec   []byte // decode output buffer
	gzsrc bytes.Reader
	gz    *gzip.Reader
}

// VisitDecodedView streams every decoded span src yields under view to
// emit. It never panics: hostile input yields at most maxViewOutput
// bytes across at most maxViewSpans spans, and malformed encodings emit
// the prefix that decoded cleanly (or nothing). Emitted slices alias
// vs's buffers and are valid only until the next decode through vs.
func VisitDecodedView(view View, src []byte, vs *ViewScratch, emit func([]byte)) {
	switch view {
	case ViewBase64:
		decodeBase64Spans(src, vs, emit)
	case ViewHex:
		decodeHexSpans(src, vs, emit)
	case ViewURL:
		decodeURLField(src, vs, emit)
	case ViewGzip:
		decodeGzipField(src, vs, emit)
	}
}

// isBase64Byte covers the standard and URL-safe alphabets. Padding '='
// is deliberately NOT alphabet: valid base64 carries '=' only as
// trailing padding, so treating it as a run terminator cleanly separates
// a blob from a "key=" prefix that would otherwise shift its phase.
func isBase64Byte(c byte) bool {
	return c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c >= '0' && c <= '9' ||
		c == '+' || c == '/' || c == '-' || c == '_'
}

func isHexByte(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// decodeBase64Spans finds maximal runs of base64-alphabet bytes of at
// least minEncodedSpan characters and decodes each: URL-safe characters
// are normalized to the standard alphabet, padding is dropped, and a
// trailing character that cannot start a final quantum is trimmed, so a
// run embedded in surrounding text still decodes its valid prefix.
func decodeBase64Spans(src []byte, vs *ViewScratch, emit func([]byte)) {
	budget := maxViewOutput
	spans := 0
	for i := 0; i < len(src) && spans < maxViewSpans && budget >= minDecodedEmit; {
		if !isBase64Byte(src[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(src) && isBase64Byte(src[j]) {
			j++
		}
		run := src[i:j]
		i = j
		if len(run) < minEncodedSpan {
			continue
		}
		vs.norm = vs.norm[:0]
		for _, c := range run {
			switch c {
			case '-':
				c = '+'
			case '_':
				c = '/'
			}
			vs.norm = append(vs.norm, c)
		}
		// Cap the encoded length so the decoded output fits the budget,
		// then trim to a decodable length (len%4 == 1 is impossible).
		n := len(vs.norm)
		if max := (budget / 3) * 4; n > max {
			n = max
		}
		if n%4 == 1 {
			n--
		}
		if n < minEncodedSpan {
			continue
		}
		need := base64.RawStdEncoding.DecodedLen(n)
		if cap(vs.dec) < need {
			vs.dec = make([]byte, need)
		}
		m, err := base64.RawStdEncoding.Decode(vs.dec[:need], vs.norm[:n])
		if m < minDecodedEmit {
			_ = err // malformed tail: whatever prefix decoded is kept
			continue
		}
		budget -= m
		spans++
		emit(vs.dec[:m])
	}
}

// decodeHexSpans finds maximal runs of hex digits of at least
// minEncodedSpan characters, trims each to an even length, and decodes.
func decodeHexSpans(src []byte, vs *ViewScratch, emit func([]byte)) {
	budget := maxViewOutput
	spans := 0
	for i := 0; i < len(src) && spans < maxViewSpans && budget >= minDecodedEmit; {
		if !isHexByte(src[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(src) && isHexByte(src[j]) {
			j++
		}
		run := src[i:j]
		i = j
		if len(run) < minEncodedSpan {
			continue
		}
		n := len(run) &^ 1
		if max := budget * 2; n > max {
			n = max &^ 1
		}
		need := n / 2
		if cap(vs.dec) < need {
			vs.dec = make([]byte, need)
		}
		m, err := hex.Decode(vs.dec[:need], run[:n])
		if m < minDecodedEmit {
			_ = err
			continue
		}
		budget -= m
		spans++
		emit(vs.dec[:m])
	}
}

// decodeURLField percent-decodes the whole field ('+' becomes a space,
// invalid escapes pass through literally) and emits it as one span when
// any byte actually changed.
func decodeURLField(src []byte, vs *ViewScratch, emit func([]byte)) {
	if bytes.IndexByte(src, '%') < 0 && bytes.IndexByte(src, '+') < 0 {
		return
	}
	vs.dec = vs.dec[:0]
	changed := false
	for i := 0; i < len(src) && len(vs.dec) < maxViewOutput; i++ {
		c := src[i]
		switch {
		case c == '+':
			vs.dec = append(vs.dec, ' ')
			changed = true
		case c == '%' && i+2 < len(src) && isHexByte(src[i+1]) && isHexByte(src[i+2]):
			var b [1]byte
			hex.Decode(b[:], src[i+1:i+3])
			vs.dec = append(vs.dec, b[0])
			changed = true
			i += 2
		default:
			vs.dec = append(vs.dec, c)
		}
	}
	if changed && len(vs.dec) >= minDecodedEmit {
		emit(vs.dec)
	}
}

// decodeGzipField inflates a field that starts with the gzip magic,
// emitting at most maxViewOutput decompressed bytes. A corrupt or
// truncated stream emits whatever prefix inflated cleanly.
func decodeGzipField(src []byte, vs *ViewScratch, emit func([]byte)) {
	if len(src) < 10 || src[0] != 0x1f || src[1] != 0x8b {
		return
	}
	vs.gzsrc.Reset(src)
	if vs.gz == nil {
		gz, err := gzip.NewReader(&vs.gzsrc)
		if err != nil {
			return
		}
		vs.gz = gz
	} else if err := vs.gz.Reset(&vs.gzsrc); err != nil {
		return
	}
	vs.gz.Multistream(false)
	if cap(vs.dec) < maxViewOutput {
		vs.dec = make([]byte, maxViewOutput)
	}
	buf := vs.dec[:maxViewOutput]
	total := 0
	for total < len(buf) {
		n, err := vs.gz.Read(buf[total:])
		total += n
		if err != nil {
			break
		}
	}
	if total >= minDecodedEmit {
		emit(buf[:total])
	}
}

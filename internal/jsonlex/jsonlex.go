// Package jsonlex is the lexer under the repository's two
// reflection-free JSON decoders: the packet decoder behind every NDJSON
// intake (httpmodel) and the signature-set decoder behind every publish,
// fetch and signature file (signature). Each decoder owns its schema;
// this package owns the tokens.
//
// A Lexer reads one in-memory document and answers false on anything
// outside the narrow form those schemas take: an escaped key, a number
// with a fraction, an exponent or more than 19 digits, invalid UTF-8, a
// control byte, a syntax error. A false is not a verdict on the
// document. The caller hands the same bytes to encoding/json, which
// decodes or rejects them; so the lexer never has to reject bad JSON
// exactly, only never accept bytes encoding/json would read differently.
package jsonlex

import (
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Lexer reads JSON tokens from one document. Its zero value is ready
// for Reset; one Lexer may be reused across documents, keeping its
// scratch.
type Lexer struct {
	data    []byte // the document being read
	off     int    // read offset into data
	scratch []byte // unescaped string bytes, reused across strings
}

// Reset starts reading data from its first byte.
func (l *Lexer) Reset(data []byte) { l.data, l.off = data, 0 }

// Remaining returns the number of bytes not yet read: an upper bound on
// what the rest of the document can decode to.
func (l *Lexer) Remaining() int { return len(l.data) - l.off }

// Str reads a JSON string and returns its unescaped bytes: a slice of
// the document, or of the lexer's scratch when it had escapes. They are
// valid only until the next call. Invalid UTF-8 and control bytes fail.
// Escapes decode as encoding/json decodes them, so the unescaped form is
// never longer than the quoted one.
func (l *Lexer) Str() ([]byte, bool) {
	l.skipSpace()
	if l.off >= len(l.data) || l.data[l.off] != '"' {
		return nil, false
	}
	l.off++
	start := l.off
	for l.off < len(l.data) {
		switch c := l.data[l.off]; {
		case c == '"':
			l.off++
			return l.data[start : l.off-1], true
		case c == '\\':
			return l.unescape(start)
		case c < ' ':
			return nil, false
		case c < utf8.RuneSelf:
			l.off++
		default:
			if !l.rune() {
				return nil, false
			}
		}
	}
	return nil, false
}

// unescape finishes a string that has escapes, from start, into the
// scratch. Like encoding/json, a surrogate escape that is not half of a
// valid pair becomes U+FFFD and the next escape is read on its own.
func (l *Lexer) unescape(start int) ([]byte, bool) {
	b := append(l.scratch[:0], l.data[start:l.off]...)
	for l.off < len(l.data) {
		c := l.data[l.off]
		switch {
		case c == '"':
			l.off++
			l.scratch = b[:0]
			return b, true
		case c == '\\':
			if l.off+1 >= len(l.data) {
				return nil, false
			}
			switch e := l.data[l.off+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := l.hex4(l.off)
				if r < 0 {
					return nil, false
				}
				l.off += 6
				if utf16.IsSurrogate(r) {
					r = utf16.DecodeRune(r, l.hex4(l.off))
					if r == unicode.ReplacementChar {
						b = utf8.AppendRune(b, r)
						continue
					}
					l.off += 6
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				return nil, false
			}
			l.off += 2
		case c < ' ':
			return nil, false
		case c < utf8.RuneSelf:
			b = append(b, c)
			l.off++
		default:
			at := l.off
			if !l.rune() {
				return nil, false
			}
			b = append(b, l.data[at:l.off]...)
		}
	}
	return nil, false
}

// rune steps over one valid multi-byte UTF-8 sequence.
func (l *Lexer) rune() bool {
	r, n := utf8.DecodeRune(l.data[l.off:])
	if r == utf8.RuneError && n == 1 {
		return false
	}
	l.off += n
	return true
}

// hex4 reads the \uXXXX escape at off, or returns -1.
func (l *Lexer) hex4(off int) rune {
	if off+6 > len(l.data) || l.data[off] != '\\' || l.data[off+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range l.data[off+2 : off+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// Key reads an object key and its colon. Escaped keys fail: they never
// match a schema without unescaping, and encoding/json does that.
func (l *Lexer) Key() ([]byte, bool) {
	l.skipSpace()
	if l.off >= len(l.data) || l.data[l.off] != '"' {
		return nil, false
	}
	start := l.off + 1
	for i := start; i < len(l.data); i++ {
		switch c := l.data[i]; {
		case c == '"':
			l.off = i + 1
			return l.data[start:i], l.Open(':')
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

// Int64 reads a JSON integer in int64's range.
func (l *Lexer) Int64() (int64, bool) {
	l.skipSpace()
	neg := l.off < len(l.data) && l.data[l.off] == '-'
	if neg {
		l.off++
	}
	n, ok := l.digits()
	switch {
	case !ok:
		return 0, false
	case neg && n <= 1<<63:
		return int64(-n), true
	case !neg && n < 1<<63:
		return int64(n), true
	}
	return 0, false
}

// Uint64 reads a non-negative JSON integer of at most 19 digits.
func (l *Lexer) Uint64() (uint64, bool) {
	l.skipSpace()
	return l.digits()
}

// digits reads at most 19 decimal digits — always inside uint64 — with
// no leading zero. Longer numbers fail; so do fractions and exponents,
// on the caller's delimiter check after the digits.
func (l *Lexer) digits() (uint64, bool) {
	start := l.off
	var n uint64
	for l.off < len(l.data) && '0' <= l.data[l.off] && l.data[l.off] <= '9' {
		n = n*10 + uint64(l.data[l.off]-'0')
		l.off++
	}
	digits := l.off - start
	if digits == 0 || digits > 19 || (digits > 1 && l.data[start] == '0') {
		return 0, false
	}
	return n, true
}

// Open consumes c after optional whitespace: an opening bracket, the
// colon after a key, or the closing bracket of an empty object or array.
func (l *Lexer) Open(c byte) bool {
	l.skipSpace()
	if l.off < len(l.data) && l.data[l.off] == c {
		l.off++
		return true
	}
	return false
}

// Next consumes the separator after a member: ',' means another follows
// (true), the closing bracket c means none does (false); anything else
// fails.
func (l *Lexer) Next(c byte) (more, ok bool) {
	l.skipSpace()
	if l.off >= len(l.data) {
		return false, false
	}
	switch l.data[l.off] {
	case ',':
		l.off++
		return true, true
	case c:
		l.off++
		return false, true
	}
	return false, false
}

// End reports whether only whitespace is left.
func (l *Lexer) End() bool {
	l.skipSpace()
	return l.off == len(l.data)
}

func (l *Lexer) skipSpace() {
	for l.off < len(l.data) {
		switch l.data[l.off] {
		case ' ', '\t', '\n', '\r':
			l.off++
		default:
			return
		}
	}
}

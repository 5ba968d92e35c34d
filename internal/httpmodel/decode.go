package httpmodel

import (
	"encoding/base64"
	"encoding/json"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"leaksig/internal/ipaddr"
)

// packetDecoder decodes one NDJSON packet line without reflection. Its
// fast path accepts exactly the shape json.Marshal(*Packet) writes — the
// schema's keys, each at most once, in any order, with any JSON
// whitespace between tokens — and decodes string escapes the way
// encoding/json does. Anything else (an unknown, escaped or case-folded
// key, a duplicate, null, a float or exponent, a number out of its
// field's range, invalid UTF-8, a control byte, a syntax error) is
// handed to json.Unmarshal on a fresh Packet, so every line decodes to
// the Packet encoding/json would produce and every line it rejects is
// still rejected.
//
// Every string the decoder stores in a Packet is its own copy of the
// field's bytes, or an interned constant: packets outlive the line —
// the learner's reservoir keeps them after the drain that delivered them
// — so nothing reachable from a Packet may alias the scanner's buffer or
// the decoder's scratch, and one retained field must not pin the line.
type packetDecoder struct {
	data    []byte   // the line being decoded
	off     int      // read offset into data
	scratch []byte   // unescaped string bytes, reused across strings
	headers []Header // the line's headers, copied out at exact size
}

// decode fills p, a zeroed Packet, from line.
func (d *packetDecoder) decode(line []byte, p *Packet) error {
	if d.fast(line, p) {
		return nil
	}
	*p = Packet{}
	if json.Unmarshal(line, p) != nil {
		return errMalformedJSON
	}
	return nil
}

// Packet keys, one bit each, to refuse duplicates.
const (
	keyID = 1 << iota
	keyApp
	keyTime
	keyHost
	keyDstIP
	keyDstPort
	keyMethod
	keyPath
	keyProto
	keyHeaders
	keyBody
	keyTrace
)

// fast decodes line into p and reports whether it could; on false p is
// partly written and the line needs the general decoder.
func (d *packetDecoder) fast(line []byte, p *Packet) bool {
	d.data, d.off = line, 0
	if !d.open('{') {
		return false
	}
	var seen int
	for more := !d.open('}'); more; {
		key, ok := d.key()
		if !ok {
			return false
		}
		var bit int
		switch string(key) {
		case "id":
			bit = keyID
			p.ID, ok = d.int64()
		case "app":
			bit = keyApp
			p.App, ok = d.text()
		case "time":
			bit = keyTime
			p.Time, ok = d.int64()
		case "host":
			bit = keyHost
			p.Host, ok = d.text()
		case "dst_ip":
			bit = keyDstIP
			var s []byte
			if s, ok = d.str(); ok {
				p.DstIP, ok = parseAddr(s)
			}
		case "dst_port":
			bit = keyDstPort
			var n uint64
			d.skipSpace()
			n, ok = d.digits()
			ok = ok && n <= 0xffff
			p.DstPort = uint16(n)
		case "method":
			bit = keyMethod
			p.Method, ok = d.constant()
		case "path":
			bit = keyPath
			p.Path, ok = d.text()
		case "proto":
			bit = keyProto
			p.Proto, ok = d.constant()
		case "headers":
			bit = keyHeaders
			p.Headers, ok = d.headerList()
		case "body":
			bit = keyBody
			p.Body, ok = d.body()
		case "trace":
			bit = keyTrace
			p.Trace, ok = d.text()
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if more, ok = d.next('}'); !ok {
			return false
		}
	}
	d.skipSpace()
	return d.off == len(d.data)
}

// headerList decodes a JSON array of {"name","value"} objects into a
// slice of exactly its length ([] is empty, not nil, as in
// encoding/json).
func (d *packetDecoder) headerList() ([]Header, bool) {
	if !d.open('[') {
		return nil, false
	}
	hs := d.headers[:0]
	for more := !d.open(']'); more; {
		var h Header
		if !d.open('{') {
			return nil, false
		}
		var seen int
		for fields := !d.open('}'); fields; {
			key, ok := d.key()
			if !ok {
				return nil, false
			}
			var bit int
			switch string(key) {
			case "name":
				bit = 1
				h.Name, ok = d.constant()
			case "value":
				bit = 2
				h.Value, ok = d.text()
			}
			if !ok || bit == 0 || seen&bit != 0 {
				return nil, false
			}
			seen |= bit
			if fields, ok = d.next('}'); !ok {
				return nil, false
			}
		}
		hs = append(hs, h)
		var ok bool
		if more, ok = d.next(']'); !ok {
			return nil, false
		}
	}
	out := make([]Header, len(hs))
	copy(out, hs)
	clear(hs) // the scratch must not keep this packet's strings alive
	d.headers = hs[:0]
	return out, true
}

// body decodes the base64 string form of []byte exactly as encoding/json
// does: StdEncoding into a buffer of DecodedLen bytes ("" is empty, not
// nil).
func (d *packetDecoder) body() ([]byte, bool) {
	s, ok := d.str()
	if !ok {
		return nil, false
	}
	b := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(b, s)
	if err != nil {
		return nil, false
	}
	return b[:n], true
}

// text reads a JSON string into a string of its own, aliasing neither
// the line nor the scratch.
func (d *packetDecoder) text() (string, bool) {
	s, ok := d.str()
	return string(s), ok
}

// constant is text for the fields whose values repeat across nearly
// every packet: a common value comes back interned.
func (d *packetDecoder) constant() (string, bool) {
	s, ok := d.str()
	return intern(s), ok
}

// str reads a JSON string and returns its unescaped bytes: a slice of
// the line, or of the scratch when it had escapes. They are valid only
// until the next call. Invalid UTF-8 and control bytes fail.
func (d *packetDecoder) str() ([]byte, bool) {
	d.skipSpace()
	if d.off >= len(d.data) || d.data[d.off] != '"' {
		return nil, false
	}
	d.off++
	start := d.off
	for d.off < len(d.data) {
		switch c := d.data[d.off]; {
		case c == '"':
			d.off++
			return d.data[start : d.off-1], true
		case c == '\\':
			return d.unescape(start)
		case c < ' ':
			return nil, false
		case c < utf8.RuneSelf:
			d.off++
		default:
			if !d.rune() {
				return nil, false
			}
		}
	}
	return nil, false
}

// unescape finishes a string that has escapes, from start, into the
// scratch. Like encoding/json, a surrogate escape that is not half of a
// valid pair becomes U+FFFD and the next escape is read on its own.
func (d *packetDecoder) unescape(start int) ([]byte, bool) {
	b := append(d.scratch[:0], d.data[start:d.off]...)
	for d.off < len(d.data) {
		c := d.data[d.off]
		switch {
		case c == '"':
			d.off++
			d.scratch = b[:0]
			return b, true
		case c == '\\':
			if d.off+1 >= len(d.data) {
				return nil, false
			}
			switch e := d.data[d.off+1]; e {
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
				r := d.hex4(d.off)
				if r < 0 {
					return nil, false
				}
				d.off += 6
				if utf16.IsSurrogate(r) {
					r = utf16.DecodeRune(r, d.hex4(d.off))
					if r == unicode.ReplacementChar {
						b = utf8.AppendRune(b, r)
						continue
					}
					d.off += 6
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				return nil, false
			}
			d.off += 2
		case c < ' ':
			return nil, false
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.off++
		default:
			at := d.off
			if !d.rune() {
				return nil, false
			}
			b = append(b, d.data[at:d.off]...)
		}
	}
	return nil, false
}

// rune steps over one valid multi-byte UTF-8 sequence.
func (d *packetDecoder) rune() bool {
	r, n := utf8.DecodeRune(d.data[d.off:])
	if r == utf8.RuneError && n == 1 {
		return false
	}
	d.off += n
	return true
}

// hex4 reads the \uXXXX escape at off, or returns -1.
func (d *packetDecoder) hex4(off int) rune {
	if off+6 > len(d.data) || d.data[off] != '\\' || d.data[off+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range d.data[off+2 : off+6] {
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

// key reads an object key and its colon. Escaped keys fail: they never
// match the schema without unescaping, and json.Unmarshal does that.
func (d *packetDecoder) key() ([]byte, bool) {
	d.skipSpace()
	if d.off >= len(d.data) || d.data[d.off] != '"' {
		return nil, false
	}
	start := d.off + 1
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			return d.data[start:i], d.open(':')
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

// int64 reads a JSON integer in int64's range.
func (d *packetDecoder) int64() (int64, bool) {
	d.skipSpace()
	neg := d.off < len(d.data) && d.data[d.off] == '-'
	if neg {
		d.off++
	}
	n, ok := d.digits()
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

// digits reads at most 19 decimal digits — always inside uint64 — with
// no leading zero. Longer numbers fail; so do fractions and exponents,
// on the caller's delimiter check after the digits.
func (d *packetDecoder) digits() (uint64, bool) {
	start := d.off
	var n uint64
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
		n = n*10 + uint64(d.data[d.off]-'0')
		d.off++
	}
	digits := d.off - start
	if digits == 0 || digits > 19 || (digits > 1 && d.data[start] == '0') {
		return 0, false
	}
	return n, true
}

// open consumes c after optional whitespace: an opening bracket, the
// colon after a key, or the closing bracket of an empty object or array.
func (d *packetDecoder) open(c byte) bool {
	d.skipSpace()
	if d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		return true
	}
	return false
}

// next consumes the separator after a member: ',' means another follows
// (true), the closing bracket c means none does (false); anything else
// fails.
func (d *packetDecoder) next(c byte) (more, ok bool) {
	d.skipSpace()
	if d.off >= len(d.data) {
		return false, false
	}
	switch d.data[d.off] {
	case ',':
		d.off++
		return true, true
	case c:
		d.off++
		return false, true
	}
	return false, false
}

func (d *packetDecoder) skipSpace() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// parseAddr parses a dotted quad of plain decimal octets, the form
// Addr.MarshalText writes. Anything ipaddr.Parse might still accept
// ("+1", "-0") fails here and is left to it through json.Unmarshal.
func parseAddr(s []byte) (ipaddr.Addr, bool) {
	var a ipaddr.Addr
	octets, digits, v := 0, 0, 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '.' {
			if digits == 0 || v > 255 {
				return 0, false
			}
			a = a<<8 | ipaddr.Addr(v)
			octets, digits, v = octets+1, 0, 0
			continue
		}
		c := s[i]
		if c < '0' || c > '9' || digits == 3 || (digits == 1 && v == 0) {
			return 0, false
		}
		v = v*10 + int(c-'0')
		digits++
	}
	return a, octets == 4
}

// intern returns the constant for the handful of values nearly every
// packet repeats — methods, protocols, common header names — and a copy
// of s otherwise.
func intern(s []byte) string {
	switch string(s) {
	case "GET":
		return "GET"
	case "POST":
		return "POST"
	case "HTTP/1.1":
		return "HTTP/1.1"
	case "HTTP/1.0":
		return "HTTP/1.0"
	case "User-Agent":
		return "User-Agent"
	case "Cookie":
		return "Cookie"
	case "Accept":
		return "Accept"
	case "Content-Type":
		return "Content-Type"
	case "Content-Length":
		return "Content-Length"
	case "Accept-Encoding":
		return "Accept-Encoding"
	case "Accept-Language":
		return "Accept-Language"
	case "Connection":
		return "Connection"
	case "Referer":
		return "Referer"
	}
	return string(s)
}

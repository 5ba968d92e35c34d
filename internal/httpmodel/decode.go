package httpmodel

import (
	"encoding/base64"
	"encoding/json"

	"leaksig/internal/ipaddr"
	"leaksig/internal/jsonlex"
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
	jsonlex.Lexer
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
	d.Reset(line)
	if !d.Open('{') {
		return false
	}
	var seen int
	for more := !d.Open('}'); more; {
		key, ok := d.Key()
		if !ok {
			return false
		}
		var bit int
		switch string(key) {
		case "id":
			bit = keyID
			p.ID, ok = d.Int64()
		case "app":
			bit = keyApp
			p.App, ok = d.text()
		case "time":
			bit = keyTime
			p.Time, ok = d.Int64()
		case "host":
			bit = keyHost
			p.Host, ok = d.text()
		case "dst_ip":
			bit = keyDstIP
			var s []byte
			if s, ok = d.Str(); ok {
				p.DstIP, ok = parseAddr(s)
			}
		case "dst_port":
			bit = keyDstPort
			var n uint64
			n, ok = d.Uint64()
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
		if more, ok = d.Next('}'); !ok {
			return false
		}
	}
	return d.End()
}

// headerList decodes a JSON array of {"name","value"} objects into a
// slice of exactly its length ([] is empty, not nil, as in
// encoding/json).
func (d *packetDecoder) headerList() ([]Header, bool) {
	if !d.Open('[') {
		return nil, false
	}
	hs := d.headers[:0]
	for more := !d.Open(']'); more; {
		var h Header
		if !d.Open('{') {
			return nil, false
		}
		var seen int
		for fields := !d.Open('}'); fields; {
			key, ok := d.Key()
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
			if fields, ok = d.Next('}'); !ok {
				return nil, false
			}
		}
		hs = append(hs, h)
		var ok bool
		if more, ok = d.Next(']'); !ok {
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
	s, ok := d.Str()
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
	s, ok := d.Str()
	return string(s), ok
}

// constant is text for the fields whose values repeat across nearly
// every packet: a common value comes back interned.
func (d *packetDecoder) constant() (string, bool) {
	s, ok := d.Str()
	return intern(s), ok
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

// Package httpmodel defines the HTTP packet representation the whole system
// operates on.
//
// The paper (§IV-B/C) models an HTTP packet p as two tuples:
//
//	destination: {ip, port, host}
//	content:     {request-line, cookie, message-body}
//
// Packet carries both tuples plus capture metadata (application, sequence
// number, synthetic timestamp) used by the evaluation harness. Only the two
// tuples ever enter the distance computation.
package httpmodel

import (
	"fmt"
	"slices"
	"sort"

	"leaksig/internal/ipaddr"
	"leaksig/internal/obs/trace"
)

// Header is one HTTP header field.
type Header struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Packet is one captured GET/POST HTTP request.
type Packet struct {
	// Capture metadata.
	ID   int64  `json:"id"`             // unique per capture
	App  string `json:"app,omitempty"`  // application package name
	Time int64  `json:"time,omitempty"` // synthetic unix timestamp

	// Destination tuple (§IV-B).
	Host    string      `json:"host"`
	DstIP   ipaddr.Addr `json:"dst_ip"`
	DstPort uint16      `json:"dst_port"`

	// Content tuple (§IV-C).
	Method  string   `json:"method"`            // "GET" or "POST"
	Path    string   `json:"path"`              // request target, including query
	Proto   string   `json:"proto"`             // e.g. "HTTP/1.1"
	Headers []Header `json:"headers,omitempty"` // all headers except Host
	Body    []byte   `json:"body,omitempty"`

	// Tracing. Trace is the cross-process trace ID ("" for unsampled
	// packets) and survives NDJSON hops; Span is the live in-process span
	// and never leaves the process. Both are nil/empty on the unsampled
	// fast path.
	Trace string      `json:"trace,omitempty"`
	Span  *trace.Span `json:"-"`
}

// RequestLine returns the HTTP request line without the trailing CRLF,
// e.g. "GET /ad?zone=1 HTTP/1.1".
func (p *Packet) RequestLine() string {
	return string(p.AppendRequestLine(nil))
}

// AppendRequestLine appends the request-line field — exactly what
// RequestLine returns — to buf and returns the extended buffer. It is
// the one place that knows the request line's format.
func (p *Packet) AppendRequestLine(buf []byte) []byte {
	buf = slices.Grow(buf, len(p.Method)+1+len(p.Path)+1+len(p.Proto))
	buf = append(buf, p.Method...)
	buf = append(buf, ' ')
	buf = append(buf, p.Path...)
	buf = append(buf, ' ')
	return append(buf, p.Proto...)
}

// Cookie returns the concatenation of all Cookie header values, joined by
// "; " in header order. It returns "" when the request carries no cookie.
func (p *Packet) Cookie() string {
	return string(p.AppendCookie(nil))
}

// AppendCookie appends the cookie field — exactly what Cookie returns —
// to buf and returns the extended buffer.
func (p *Packet) AppendCookie(buf []byte) []byte {
	first := true
	for i := range p.Headers {
		if isCookieName(p.Headers[i].Name) {
			if !first {
				buf = append(buf, "; "...)
			}
			buf = append(buf, p.Headers[i].Value...)
			first = false
		}
	}
	return buf
}

// isCookieName reports whether a header name is "Cookie", compared ASCII
// case-insensitively: HTTP field names are ASCII tokens, so a name that
// only folds to "cookie" under Unicode rules (the Kelvin sign U+212A for
// 'k') is not a Cookie header. Every path that builds the cookie field
// decides through this one function.
func isCookieName(name string) bool {
	if len(name) != len("cookie") {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != "cookie"[i] {
			return false
		}
	}
	return true
}

// Content returns the three content fields joined by '\n': request line,
// cookie, body. The separator keeps a token from spanning two fields.
// It allocates one fresh buffer. The matcher does not call it: it builds
// the fields into its scratch through AppendRequestLine and AppendCookie
// and scans each on its own.
func (p *Packet) Content() []byte {
	n := len(p.Method) + len(p.Path) + len(p.Proto) + 4 + len(p.Body)
	for i := range p.Headers {
		if isCookieName(p.Headers[i].Name) {
			n += len(p.Headers[i].Value) + 2
		}
	}
	buf := p.AppendRequestLine(make([]byte, 0, n))
	buf = append(buf, '\n')
	buf = p.AppendCookie(buf)
	buf = append(buf, '\n')
	return append(buf, p.Body...)
}

// ContentFields returns the three content components in the order the paper
// sums their NCD terms: request-line, cookie, message-body. The first two
// are fresh copies; the body aliases p.Body.
func (p *Packet) ContentFields() [3][]byte {
	return [3][]byte{p.AppendRequestLine(nil), p.AppendCookie(nil), p.Body}
}

// clone returns a deep copy of the packet. The clone keeps the trace ID
// but not the live span — span ownership stays with the original.
func (p *Packet) clone() *Packet {
	q := *p
	q.Headers = append([]Header(nil), p.Headers...)
	q.Body = append([]byte(nil), p.Body...)
	q.Span = nil
	return &q
}

// BeginTrace attaches tracing to a freshly ingested packet: a packet
// arriving with a trace ID from upstream adopts it; otherwise the tracer
// makes its head-sampling decision and, when sampled, the packet gets a
// fresh span stamped at ingest. Unsampled packets (and a nil tracer)
// leave both fields zero at the cost of one atomic add.
func (p *Packet) BeginTrace(t *trace.Tracer) {
	if p.Span != nil {
		return
	}
	if p.Trace != "" {
		if sp := t.Adopt(p.Trace); sp != nil {
			p.Span = sp
			sp.Stamp(trace.StageIngest)
		}
		return
	}
	if sp := t.Start(); sp != nil {
		p.Span = sp
		p.Trace = sp.ID()
		sp.Stamp(trace.StageIngest)
	}
}

// EndTrace finishes and detaches the packet's span (keeping the trace
// ID), for owners done with per-packet staging.
func (p *Packet) EndTrace() {
	if p.Span != nil {
		p.Span.Finish()
		p.Span = nil
	}
}

// Validate checks structural invariants: method is GET or POST, path is
// non-empty and starts with '/', protocol is HTTP/1.x, host is non-empty,
// and GET requests carry no body. The error says which check failed and
// how long the field was, never the field itself: a rejected packet's
// path or method is attacker-chosen and may carry the very identifiers
// the detector exists to catch, and this error is logged.
func (p *Packet) Validate() error {
	switch p.Method {
	case "GET", "POST":
	default:
		return fmt.Errorf("httpmodel: packet %d: unsupported method (%d bytes)", p.ID, len(p.Method))
	}
	if p.Path == "" || p.Path[0] != '/' {
		return fmt.Errorf("httpmodel: packet %d: bad path (%d bytes)", p.ID, len(p.Path))
	}
	if p.Proto != "HTTP/1.0" && p.Proto != "HTTP/1.1" {
		return fmt.Errorf("httpmodel: packet %d: bad protocol (%d bytes)", p.ID, len(p.Proto))
	}
	if p.Host == "" {
		return fmt.Errorf("httpmodel: packet %d: missing host", p.ID)
	}
	if p.Method == "GET" && len(p.Body) > 0 {
		return fmt.Errorf("httpmodel: packet %d: GET with body", p.ID)
	}
	return nil
}

// String returns a short human-readable description of the packet.
func (p *Packet) String() string {
	return fmt.Sprintf("%s %s%s -> %s:%d", p.Method, p.Host, p.Path, p.DstIP, p.DstPort)
}

// ByID sorts packets in place by capture ID.
func ByID(ps []*Packet) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].ID < ps[j].ID })
}

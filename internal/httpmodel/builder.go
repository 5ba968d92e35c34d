package httpmodel

import (
	"strings"

	"leaksig/internal/ipaddr"
)

// Builder assembles packets fluently. It is used heavily by the synthetic
// traffic generator and by tests. Build returns a fresh packet each call, so
// a builder can be reused as a template.
type Builder struct {
	p Packet
}

// newBuilder starts a builder for the given method, host, and path.
func newBuilder(method, host, path string) *Builder {
	return &Builder{p: Packet{
		Method: method,
		Host:   host,
		Path:   path,
		Proto:  "HTTP/1.1",
	}}
}

// Get starts a GET request builder.
func Get(host, path string) *Builder { return newBuilder("GET", host, path) }

// Post starts a POST request builder.
func Post(host, path string) *Builder { return newBuilder("POST", host, path) }

// ID sets the capture ID.
func (b *Builder) ID(id int64) *Builder { b.p.ID = id; return b }

// App sets the originating application package name.
func (b *Builder) App(app string) *Builder { b.p.App = app; return b }

// Time sets the synthetic capture timestamp.
func (b *Builder) Time(t int64) *Builder { b.p.Time = t; return b }

// Dest sets the destination IP and port.
func (b *Builder) Dest(ip ipaddr.Addr, port uint16) *Builder {
	b.p.DstIP = ip
	b.p.DstPort = port
	return b
}

// Header appends a header field.
func (b *Builder) Header(name, value string) *Builder {
	b.p.Headers = append(b.p.Headers, Header{Name: name, Value: value})
	return b
}

// Cookie appends a Cookie header.
func (b *Builder) Cookie(value string) *Builder { return b.Header("Cookie", value) }

// UserAgent appends a User-Agent header.
func (b *Builder) UserAgent(value string) *Builder { return b.Header("User-Agent", value) }

// Query appends one key=value pair to the path's query string.
func (b *Builder) Query(key, value string) *Builder {
	sep := "?"
	if strings.ContainsRune(b.p.Path, '?') {
		sep = "&"
	}
	b.p.Path += sep + key + "=" + value
	return b
}

// Body sets the message body (POST payloads).
func (b *Builder) Body(body []byte) *Builder {
	b.p.Body = append([]byte(nil), body...)
	return b
}

// BodyString sets the message body from a string.
func (b *Builder) BodyString(body string) *Builder { return b.Body([]byte(body)) }

// Form sets an application/x-www-form-urlencoded body from ordered pairs
// and the matching Content-Type header.
func (b *Builder) Form(pairs ...string) *Builder {
	if len(pairs)%2 != 0 {
		panic("httpmodel: Form requires an even number of arguments")
	}
	var sb strings.Builder
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			sb.WriteByte('&')
		}
		sb.WriteString(pairs[i])
		sb.WriteByte('=')
		sb.WriteString(pairs[i+1])
	}
	b.Header("Content-Type", "application/x-www-form-urlencoded")
	return b.BodyString(sb.String())
}

// Build returns a copy of the assembled packet.
func (b *Builder) Build() *Packet {
	return b.p.clone()
}

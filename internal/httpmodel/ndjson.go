package httpmodel

import (
	"bufio"
	"errors"
	"io"
	"sync"
)

// maxLineBytes caps one NDJSON packet line; lineBufBytes is the
// scanner buffer a scan starts on, which holds any usual packet line.
const (
	maxLineBytes = 1 << 20
	lineBufBytes = 64 << 10
)

// lineBufs recycles ReadNDJSON's starting buffers, so a request body
// costs no buffer allocation once the pool is warm.
var lineBufs = sync.Pool{New: func() any { return new([lineBufBytes]byte) }}

// errMalformedJSON stands in for the decoder's error, whose text (json's
// or ipaddr's) can quote the offending bytes.
var errMalformedJSON = errors.New("malformed JSON")

// ReadNDJSON is the one place untrusted packet lines enter a daemon: it
// scans r as NDJSON in the capture schema, decodes (packetDecoder: the
// schema without reflection, encoding/json for anything unusual) and
// validates each non-empty line, and hands the packet to accept. A line
// that does not decode, does not validate, or that accept refuses is
// counted rejected and reported to reject with its 1-based line number,
// and the scan goes on. The decode and validation errors name the class of failure
// and field lengths only — never json's text or a field's value, which
// can carry the sensitive bytes this system exists to catch and which
// callers write to logs and responses.
//
// The scanner starts on a 64 KiB buffer drawn from a package-level pool
// — one buffer policy for stdin, /ingest, /observe, /match and capture
// files — and a longer line grows a buffer of its own, up to the 1 MiB
// line cap. Only the pooled buffer goes back to the pool. No packet
// aliases it: the decoder copies every string and the body out of the
// line. err is the scanner's own — a failed read or an over-long line —
// and ends the scan.
func ReadNDJSON(r io.Reader, accept func(*Packet) error, reject func(line int, err error)) (accepted, rejected int, err error) {
	buf := lineBufs.Get().(*[lineBufBytes]byte)
	defer lineBufs.Put(buf)
	sc := bufio.NewScanner(r)
	sc.Buffer(buf[:0], maxLineBytes)
	var d packetDecoder
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		p := new(Packet)
		err := d.decode(sc.Bytes(), p)
		if err == nil {
			err = p.Validate()
		}
		if err == nil {
			err = accept(p)
		}
		if err != nil {
			rejected++
			reject(line, err)
			continue
		}
		accepted++
	}
	return accepted, rejected, sc.Err()
}

package httpmodel

import (
	"bufio"
	"errors"
	"io"
)

// maxLineBytes caps one NDJSON packet line.
const maxLineBytes = 1 << 20

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
// buf is the scanner's initial buffer: nil grows on demand, right for
// the usual one-packet /match body; a preallocated megabyte spares a
// long stream the regrowth. Either way a line is capped at 1 MiB. err
// is the scanner's own — a failed read or an over-long line — and ends
// the scan.
func ReadNDJSON(r io.Reader, buf []byte, accept func(*Packet) error, reject func(line int, err error)) (accepted, rejected int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(buf, maxLineBytes)
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

package signature

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	"leaksig/internal/jsonlex"
)

// The set codec. A set travels as JSON on every path it takes — publish
// bodies, GET /signatures, -sigs files — and a 1,000-signature set is
// ~170 KB of it, decoded twice and encoded once per publish. Neither
// direction uses reflection on the usual form; both fall back to
// encoding/json for anything unusual, so the bytes on the wire and the
// sets they decode to are exactly encoding/json's.

// WriteJSON writes the set as json.Encoder does with SetIndent("", "  "):
// two-space indentation, HTML-safe escaping, and a trailing newline.
func (s *Set) WriteJSON(w io.Writer) error {
	var b []byte
	if buf, ok := w.(*bytes.Buffer); ok {
		buf.Grow(s.encodedSize())
		b = buf.AvailableBuffer()
	} else {
		b = make([]byte, 0, s.encodedSize())
	}
	_, err := w.Write(s.appendJSON(b))
	return err
}

// ReadJSON reads all of r and decodes it with DecodeJSON. A reader that
// reports its length (bytes.Reader, bytes.Buffer, strings.Reader) is
// read into one buffer of exactly that size.
func ReadJSON(r io.Reader) (*Set, error) {
	var data []byte
	var err error
	if l, ok := r.(interface{ Len() int }); ok {
		data = make([]byte, l.Len())
		_, err = io.ReadFull(r, data)
	} else {
		data, err = io.ReadAll(r)
	}
	if err != nil {
		return nil, fmt.Errorf("signature: reading set: %w", err)
	}
	return DecodeJSON(data)
}

// ReadFile reads the set stored at path — what a daemon's or tool's
// -sigs flag names — and refuses one that fails Validate, as a publish
// would: a null entry, an unknown kind or view, or an empty token.
func ReadFile(path string) (*Set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("opening signatures: %w", err)
	}
	set, err := DecodeJSON(data)
	if err == nil {
		err = set.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("reading signatures: %w", err)
	}
	return set, nil
}

// DecodeJSON decodes the first JSON value of data as a set, exactly as
// json.NewDecoder(bytes.NewReader(data)).Decode does: the result is
// encoding/json's set, an error is returned where it returns one, and
// bytes after the first value are not examined. The decoded set does not
// alias data.
//
// The usual form — the schema's keys, each at most once, with any
// whitespace, and nothing but whitespace after — decodes without
// reflection. Anything else (an unknown, escaped or case-folded key, a
// duplicate, a null, a float, an out-of-range number, invalid UTF-8,
// trailing bytes) goes to encoding/json on the same bytes.
func DecodeJSON(data []byte) (*Set, error) {
	d := decoders.Get().(*setDecoder)
	s, ok := d.set(data)
	d.release()
	if ok {
		return s, nil
	}
	s = new(Set)
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(s); err != nil {
		return nil, fmt.Errorf("signature: decoding set: %w", err)
	}
	return s, nil
}

// decoders recycles the decoders' scratch across sets.
var decoders = sync.Pool{New: func() any { return new(setDecoder) }}

// Block sizes of the decoder's allocations: the text of many strings,
// the elements of many string lists, and many signatures share one
// allocation each. Every block is also capped by what the rest of the
// document could still hold, so a small set gets small blocks.
const (
	textBlock = 64 << 10
	listBlock = 1024
	sigBlock  = 256
)

// setDecoder is the reflection-free half of DecodeJSON. Every string it
// stores in a Set is cut from a text block of its own, and every list
// from a block of the set's own, so nothing aliases the document or the
// scratch, and a set costs a few allocations rather than one per value.
type setDecoder struct {
	jsonlex.Lexer
	text  strings.Builder // the text block strings are cut from
	lists []string        // the block string lists are cut from
	sigs  []Signature     // the block signatures are cut from
	list  []string        // scratch: the list being read
	ptrs  []*Signature    // scratch: the signatures being read
}

// release returns d to the pool, dropping the blocks and every
// reference the scratch holds into the set just decoded.
func (d *setDecoder) release() {
	d.Reset(nil)
	d.text = strings.Builder{}
	d.lists, d.sigs = nil, nil
	clear(d.list[:cap(d.list)])
	clear(d.ptrs[:cap(d.ptrs)])
	decoders.Put(d)
}

// Set keys, one bit each, to refuse duplicates.
const (
	keySignatures = 1 << iota
	keyTrainingSize
	keyVersion
	keyTraces
)

// set decodes data and reports whether it could; on false the result is
// meaningless and data needs encoding/json.
func (d *setDecoder) set(data []byte) (*Set, bool) {
	d.Reset(data)
	if !d.Open('{') {
		return nil, false
	}
	s := new(Set)
	var seen int
	for more := !d.Open('}'); more; {
		key, ok := d.Key()
		if !ok {
			return nil, false
		}
		var bit int
		switch string(key) {
		case "signatures":
			bit = keySignatures
			s.Signatures, ok = d.signatures()
		case "training_size":
			bit = keyTrainingSize
			s.TrainingSize, ok = d.int()
		case "version":
			bit = keyVersion
			s.Version, ok = d.Int64()
		case "traces":
			bit = keyTraces
			s.Traces, ok = d.strings()
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return nil, false
		}
		seen |= bit
		if more, ok = d.Next('}'); !ok {
			return nil, false
		}
	}
	return s, d.End()
}

// Signature keys, one bit each.
const (
	keyID = 1 << iota
	keyKind
	keyTokens
	keyHostSuffix
	keyClusterSize
	keyViews
)

// signatures decodes the array of signature objects into a slice of
// exactly its length ([] is empty, not nil, as in encoding/json). A null
// entry fails.
func (d *setDecoder) signatures() ([]*Signature, bool) {
	if !d.Open('[') {
		return nil, false
	}
	ptrs := d.ptrs[:0]
	for more := !d.Open(']'); more; {
		if !d.Open('{') {
			return nil, false
		}
		if len(d.sigs) == cap(d.sigs) {
			// Each signature still to come takes at least 3 bytes: {},
			d.sigs = make([]Signature, 0, min(sigBlock, d.Remaining()/3+1))
		}
		d.sigs = d.sigs[:len(d.sigs)+1]
		sig := &d.sigs[len(d.sigs)-1]
		var seen int
		for fields := !d.Open('}'); fields; {
			key, ok := d.Key()
			if !ok {
				return nil, false
			}
			var bit int
			switch string(key) {
			case "id":
				bit = keyID
				sig.ID, ok = d.int()
			case "kind":
				bit = keyKind
				sig.Kind, ok = d.string()
			case "tokens":
				bit = keyTokens
				sig.Tokens, ok = d.strings()
			case "host_suffix":
				bit = keyHostSuffix
				sig.HostSuffix, ok = d.string()
			case "cluster_size":
				bit = keyClusterSize
				sig.ClusterSize, ok = d.int()
			case "views":
				bit = keyViews
				sig.Views, ok = d.strings()
			}
			if !ok || bit == 0 || seen&bit != 0 {
				return nil, false
			}
			seen |= bit
			if fields, ok = d.Next('}'); !ok {
				return nil, false
			}
		}
		ptrs = append(ptrs, sig)
		var ok bool
		if more, ok = d.Next(']'); !ok {
			return nil, false
		}
	}
	d.ptrs = ptrs
	return append(make([]*Signature, 0, len(ptrs)), ptrs...), true
}

// strings decodes an array of strings into a list cut from the list
// block ([] is empty, not nil).
func (d *setDecoder) strings() ([]string, bool) {
	if !d.Open('[') {
		return nil, false
	}
	list := d.list[:0]
	for more := !d.Open(']'); more; {
		s, ok := d.string()
		if !ok {
			return nil, false
		}
		list = append(list, s)
		if more, ok = d.Next(']'); !ok {
			return nil, false
		}
	}
	d.list = list
	if len(list) == 0 {
		return []string{}, true
	}
	if cap(d.lists)-len(d.lists) < len(list) {
		// Each element still to come takes at least 3 bytes: "",
		d.lists = make([]string, 0, max(len(list), min(listBlock, len(list)+d.Remaining()/3)))
	}
	start := len(d.lists)
	d.lists = append(d.lists, list...)
	return d.lists[start:len(d.lists):len(d.lists)], true
}

// string decodes a JSON string.
func (d *setDecoder) string() (string, bool) {
	s, ok := d.Str()
	if !ok {
		return "", false
	}
	return d.keep(s), true
}

// keep copies s into the text block. Each string still to come is at
// most as long as what is left of the document.
func (d *setDecoder) keep(s []byte) string {
	if d.text.Cap()-d.text.Len() < len(s) {
		d.text = strings.Builder{}
		d.text.Grow(max(len(s), min(textBlock, len(s)+d.Remaining())))
	}
	start := d.text.Len()
	d.text.Write(s)
	return d.text.String()[start:]
}

// int reads a JSON integer in int's range.
func (d *setDecoder) int() (int, bool) {
	n, ok := d.Int64()
	return int(n), ok && int64(int(n)) == n
}

// encodedSize estimates the length of the set's JSON, so WriteJSON
// writes it from one buffer.
func (s *Set) encodedSize() int {
	if s == nil {
		return len("null\n")
	}
	n := 64
	for _, t := range s.Traces {
		n += len(t) + 8
	}
	for _, sig := range s.Signatures {
		n += 80
		if sig == nil {
			continue
		}
		n += len(sig.Kind) + len(sig.HostSuffix) + 40
		for _, t := range sig.Tokens {
			n += len(t) + 12
		}
		for _, v := range sig.Views {
			n += len(v) + 12
		}
	}
	return n
}

// appendJSON appends WriteJSON's form of the set to b. The fields go in
// struct order, omitempty fields only when non-empty; a nil slice is
// null and an empty one [].
func (s *Set) appendJSON(b []byte) []byte {
	if s == nil {
		return append(b, "null\n"...)
	}
	b = append(b, "{\n  \"signatures\": "...)
	switch {
	case s.Signatures == nil:
		b = append(b, "null"...)
	case len(s.Signatures) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i, sig := range s.Signatures {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			b = sig.appendJSON(b)
		}
		b = append(b, "\n  ]"...)
	}
	b = append(b, ",\n  \"training_size\": "...)
	b = strconv.AppendInt(b, int64(s.TrainingSize), 10)
	b = append(b, ",\n  \"version\": "...)
	b = strconv.AppendInt(b, s.Version, 10)
	if len(s.Traces) > 0 {
		b = append(b, ",\n  \"traces\": "...)
		b = appendStrings(b, s.Traces, "\n    ")
	}
	return append(b, "\n}\n"...)
}

// appendJSON appends one entry of the signatures array, at its depth.
func (sig *Signature) appendJSON(b []byte) []byte {
	if sig == nil {
		return append(b, "null"...)
	}
	const field = ",\n      "
	b = append(b, "{\n      \"id\": "...)
	b = strconv.AppendInt(b, int64(sig.ID), 10)
	if sig.Kind != "" {
		b = append(b, field+`"kind": `...)
		b = appendString(b, sig.Kind)
	}
	b = append(b, field+`"tokens": `...)
	b = appendStrings(b, sig.Tokens, "\n        ")
	if sig.HostSuffix != "" {
		b = append(b, field+`"host_suffix": `...)
		b = appendString(b, sig.HostSuffix)
	}
	b = append(b, field+`"cluster_size": `...)
	b = strconv.AppendInt(b, int64(sig.ClusterSize), 10)
	if len(sig.Views) > 0 {
		b = append(b, field+`"views": `...)
		b = appendStrings(b, sig.Views, "\n        ")
	}
	return append(b, "\n    }"...)
}

// appendStrings appends a string array whose elements sit at indent (a
// newline and the spaces); its closing bracket sits two spaces less.
func appendStrings(b []byte, ss []string, indent string) []byte {
	switch {
	case ss == nil:
		return append(b, "null"...)
	case len(ss) == 0:
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, indent...)
		b = appendString(b, s)
	}
	b = append(b, indent[:len(indent)-2]...)
	return append(b, ']')
}

// appendString appends s quoted. Printable ASCII is escaped here, as
// encoding/json escapes it: a quote and a backslash with a backslash,
// and <, > and & — common in query-string tokens — as \u003c, \u003e and
// \u0026. A string with a control byte or any non-ASCII byte goes whole
// through json.Marshal, whose escaping of those (U+2028 and U+2029,
// invalid UTF-8 as U+FFFD) is the wire form.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '<':
			b = append(b, `\u003c`...)
		case '>':
			b = append(b, `\u003e`...)
		case '&':
			b = append(b, `\u0026`...)
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

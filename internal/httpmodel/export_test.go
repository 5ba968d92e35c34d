package httpmodel

// FastDecoder returns the schema decoder's fast path as one decoder
// reused across calls, the way ReadNDJSON reuses it: ok is false where
// ReadNDJSON falls back to encoding/json.
func FastDecoder() func(line []byte) (p *Packet, ok bool) {
	var d packetDecoder
	return func(line []byte) (*Packet, bool) {
		p := new(Packet)
		return p, d.fast(line, p)
	}
}

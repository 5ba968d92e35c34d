package flowcontrol

import "leaksig/internal/httpmodel"

// observedBackend forwards unmatched packets to an observer.
type observedBackend struct {
	b      Backend
	onMiss func(*httpmodel.Packet)
}

// NewObservedBackend wraps a backend so every vetted packet that matches
// no signature is also handed to onMiss — the proxy's suspect-flow
// forwarding hook into online signature generation (siggen.Service's
// Observe, or an HTTP relay to cmd/siggend). onMiss runs inline on the
// request path and must be fast and non-blocking; the siggen intake's
// lock-free channel offer qualifies. A nil onMiss returns the backend
// unwrapped.
func NewObservedBackend(b Backend, onMiss func(*httpmodel.Packet)) Backend {
	if onMiss == nil {
		return b
	}
	return &observedBackend{b: b, onMiss: onMiss}
}

// MatchPacket implements Backend.
func (o *observedBackend) MatchPacket(p *httpmodel.Packet) []int {
	matched := o.b.MatchPacket(p)
	if len(matched) == 0 {
		o.onMiss(p)
	}
	return matched
}

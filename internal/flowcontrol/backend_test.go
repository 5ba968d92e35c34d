package flowcontrol

import (
	"testing"

	"leaksig/internal/engine"
	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
)

func hostSet(id int, token string) *signature.Set {
	return &signature.Set{Signatures: []*signature.Signature{
		{ID: id, Tokens: []string{token}, ClusterSize: 2},
	}}
}

// TestObservedBackendForwardsMisses pins the suspect-flow forwarding
// contract: exactly the packets that match nothing reach the observer —
// the proxy-side feed of the online signature generator.
func TestObservedBackendForwardsMisses(t *testing.T) {
	eng := engine.New(hostSet(1, "dev=8a6b1c9f33d200e7"), engine.Config{Shards: 1})
	defer eng.Close()
	var misses []*httpmodel.Packet
	be := NewObservedBackend(eng, func(p *httpmodel.Packet) { misses = append(misses, p) })

	hit := &httpmodel.Packet{Host: "ads.alpha.com", Method: "GET", Path: "/t?dev=8a6b1c9f33d200e7", Proto: "HTTP/1.1"}
	miss := &httpmodel.Packet{Host: "cdn.beta.com", Method: "GET", Path: "/asset.js", Proto: "HTTP/1.1"}
	if got := be.MatchPacket(hit); len(got) == 0 {
		t.Fatal("signed packet did not match")
	}
	if got := be.MatchPacket(miss); len(got) != 0 {
		t.Fatal("clean packet matched")
	}
	if len(misses) != 1 || misses[0].Host != "cdn.beta.com" {
		t.Fatalf("observer saw %d misses (%v), want only the clean packet", len(misses), misses)
	}
	// A nil observer unwraps to the backend itself.
	if NewObservedBackend(eng, nil) != Backend(eng) {
		t.Fatal("nil observer should return the backend unwrapped")
	}
	// Inline vets through the wrapper land in the engine's telemetry.
	if m := eng.Metrics(); m.SyncVetted != 2 || m.SyncMatched != 1 {
		t.Fatalf("engine sync telemetry = %d/%d, want 2/1", m.SyncMatched, m.SyncVetted)
	}
}

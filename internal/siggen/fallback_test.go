package siggen

import (
	"fmt"
	"testing"

	"leaksig/internal/detect"
	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
	"leaksig/internal/signature"
)

// orderedLeakPacket fabricates one leaking POST whose body carries two
// identifier fields in a fixed order with varying filler between them, so
// conjunction distillation extracts the identifier segments as separate
// tokens (the filler never repeats across members).
func orderedLeakPacket(i int) *httpmodel.Packet {
	body := fmt.Sprintf("s=%04d&device_id=IMEI-358240051111110&m=%04d&aid=9774d56d682e549c&e=%04d",
		i*1371%10000, i*2467%10000, i*3613%10000)
	return httpmodel.Post("collect.tracker-net.example", "/collect").
		App("com.app").
		ID(int64(i)).
		Dest(ipaddr.FromOctets(10, 1, 2, 3), 80).
		UserAgent("Dalvik/1.6.0").
		Body([]byte(body)).
		Build()
}

// reversedBenignPacket carries the SAME identifier segments but in the
// opposite order: an unordered conjunction of the leak tokens matches it,
// the ordered subsequence does not.
func reversedBenignPacket(i int) *httpmodel.Packet {
	body := fmt.Sprintf("s=%04d&aid=9774d56d682e549c&e=%04d&device_id=IMEI-358240051111110&m=%04d",
		i*1371%10000, i*2467%10000, i*3613%10000)
	return httpmodel.Post("collect.tracker-net.example", "/collect").
		ID(int64(500+i)).
		Dest(ipaddr.FromOctets(192, 0, 2, 9), 80).
		UserAgent("Dalvik/1.6.0").
		Body([]byte(body)).
		Build()
}

func orderedGroup() []group {
	var members []*httpmodel.Packet
	for i := 0; i < 8; i++ {
		members = append(members, orderedLeakPacket(i))
	}
	return []group{{ID: 1, Packets: members, Tenants: map[string]int{"com.app": len(members)}}}
}

// TestSubsequenceFallback drives the distiller into the fallback path: a
// held-out corpus where the leak's token material recurs in reversed
// order kills the unordered conjunction at the FP gate, and the group
// retries as an ordered subsequence signature — which the same corpus
// cannot fire — published with the same provenance.
func TestSubsequenceFallback(t *testing.T) {
	groups := orderedGroup()
	var hold []*httpmodel.Packet
	for i := 0; i < 80; i++ {
		hold = append(hold, benignPacket(i))
	}
	for i := 0; i < 20; i++ {
		hold = append(hold, reversedBenignPacket(i))
	}
	opts := signature.Options{MinClusterSize: 2}

	cands, st := distill(new(tokenMemo), groups, nil, hold, nil, opts, 0.01)
	if st.Candidates != 1 || st.RejectedFP < 1 {
		t.Fatalf("conjunction candidate should exist and die at the FP gate: %+v", st)
	}
	if st.SubseqCandidates < 1 || st.SubseqAccepted < 1 {
		t.Fatalf("no subsequence fallback was generated/accepted: %+v", st)
	}
	if len(cands) != 1 {
		t.Fatalf("want exactly the fallback candidate, got %d: %+v", len(cands), st)
	}
	c := cands[0]
	if c.sig.Kind != signature.KindSubsequence {
		t.Fatalf("fallback candidate kind = %q", c.sig.Kind)
	}
	if _, ok := c.sources[1]; !ok || c.tenants["com.app"] != len(groups[0].Packets) {
		t.Fatalf("fallback lost provenance: sources=%v tenants=%v", c.sources, c.tenants)
	}

	set := assemble([]*signature.Signature{c.sig}, len(groups[0].Packets))
	if err := set.Validate(); err != nil {
		t.Fatalf("assembled fallback set invalid: %v", err)
	}
	eng := detect.NewEngine(set)
	for i, p := range groups[0].Packets {
		if !eng.Matches(p) {
			t.Fatalf("fallback signature misses leak member %d", i)
		}
	}
	for i, p := range hold {
		if eng.Matches(p) {
			t.Fatalf("fallback signature fires on held-out benign packet %d", i)
		}
	}
}

// TestPerTenantFPGate pins the tenant-corpus gate semantics: a candidate
// must clear the shared held-out gate AND every contributing tenant's
// private corpus; corpora of tenants that did not contribute to the
// candidate are ignored.
func TestPerTenantFPGate(t *testing.T) {
	groups := orderedGroup()
	var sharedHold []*httpmodel.Packet
	for i := 0; i < 50; i++ {
		sharedHold = append(sharedHold, benignPacket(i))
	}
	var reversed []*httpmodel.Packet
	for i := 0; i < 20; i++ {
		reversed = append(reversed, reversedBenignPacket(i))
	}
	opts := signature.Options{MinClusterSize: 2}

	// No tenant corpora: the conjunction clears the shared gate.
	cands, st := distill(new(tokenMemo), groups, nil, sharedHold, nil, opts, 0.01)
	if len(cands) != 1 || cands[0].sig.Kind != "" {
		t.Fatalf("baseline conjunction should survive the shared gate: %+v", st)
	}

	// The contributing tenant's private corpus holds the reversed shape:
	// the conjunction dies there even though the shared gate passed, and
	// the ordered fallback — which that corpus cannot fire — replaces it.
	tenantHold := map[string][]*httpmodel.Packet{"com.app": reversed}
	cands, st = distill(new(tokenMemo), groups, nil, sharedHold, tenantHold, opts, 0.01)
	if st.RejectedFP < 1 {
		t.Fatalf("tenant corpus did not reject the conjunction: %+v", st)
	}
	if len(cands) != 1 || cands[0].sig.Kind != signature.KindSubsequence {
		t.Fatalf("want the subsequence fallback after the tenant gate, got %+v (stats %+v)", cands, st)
	}

	// A NON-contributing tenant's corpus must not gate the candidate.
	tenantHold = map[string][]*httpmodel.Packet{"com.unrelated": reversed}
	cands, st = distill(new(tokenMemo), groups, nil, sharedHold, tenantHold, opts, 0.01)
	if len(cands) != 1 || cands[0].sig.Kind != "" {
		t.Fatalf("non-contributing tenant corpus rejected the conjunction: %+v", st)
	}
}

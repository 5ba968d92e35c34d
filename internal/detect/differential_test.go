package detect

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"weak"

	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
	"leaksig/internal/reference"
	"leaksig/internal/signature"
)

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDifferentialEngineVsReference fuzzes random signature sets against
// random packets and asserts MatchPacket, MatchInto and Matches all agree
// with reference.Match — including host constraints, shared tokens,
// duplicate tokens, subsequence signatures, and conjunction tokens
// planted to span field boundaries (which must NOT match).
func TestDifferentialEngineVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	vocab := []string{
		"udid=", "imei=", "f3a9c1d2", "zone=1", "carrier=docomo",
		"lat=35.6", "lon=139.7", "sess", "=&x=", "1 HTTP",
	}
	hosts := []string{"a.ads.example", "b.ads.example", "track.example", "cdn.other"}
	suffixes := []string{"", "ads.example", "example", "track.example", "absent.example"}

	randPacket := func() *httpmodel.Packet {
		b := httpmodel.Get(hosts[rng.Intn(len(hosts))], "/p")
		path := "/p?"
		for i := 0; i < rng.Intn(4); i++ {
			path += vocab[rng.Intn(len(vocab))] + "&"
		}
		b = httpmodel.Get(hosts[rng.Intn(len(hosts))], path)
		if rng.Intn(2) == 0 {
			ck := ""
			for i := 0; i < 1+rng.Intn(3); i++ {
				ck += vocab[rng.Intn(len(vocab))]
			}
			b = b.Cookie(ck)
		}
		p := b.Dest(ipaddr.MustParse("203.0.113.9"), 80).Build()
		if rng.Intn(3) == 0 {
			p.Method = "POST"
			body := ""
			for i := 0; i < rng.Intn(4); i++ {
				body += vocab[rng.Intn(len(vocab))] + "\n" // '\n' legal inside the body field
			}
			p.Body = []byte(body)
		}
		return p
	}

	for iter := 0; iter < 300; iter++ {
		nSigs := 1 + rng.Intn(6)
		sigs := make([]*signature.Signature, nSigs)
		for i := range sigs {
			nTok := 1 + rng.Intn(3)
			toks := make([]string, 0, nTok)
			spans := false
			for j := 0; j < nTok; j++ {
				tok := vocab[rng.Intn(len(vocab))]
				switch rng.Intn(16) {
				case 0:
					tok = tok + "\n" + vocab[rng.Intn(len(vocab))] // only the body may contain it
					spans = true
				case 1:
					tok = "HTTP/1.1\n" + tok // spans the request line into a cookie starting with tok
					spans = true
				}
				toks = append(toks, tok)
				if rng.Intn(6) == 0 {
					toks = append(toks, tok) // duplicate token in one signature
				}
			}
			sigs[i] = &signature.Signature{
				ID:         i,
				Tokens:     toks,
				HostSuffix: suffixes[rng.Intn(len(suffixes))],
			}
			// Subsequence tokens stay '\n'-free, as generated ones are:
			// the ordered walk runs over Packet.Content, where a token
			// holding '\n' could straddle two fields.
			if !spans && rng.Intn(4) == 0 {
				sigs[i].Kind = signature.KindSubsequence
			}
		}
		set := &signature.Set{Signatures: sigs}
		eng := NewEngine(set)
		sc := eng.NewScratch()
		for k := 0; k < 10; k++ {
			p := randPacket()
			want := reference.Match(set, p)
			if got := eng.MatchPacket(p); !equalIDs(got, want) {
				t.Fatalf("iter %d: MatchPacket=%v ref=%v\nsigs=%+v\npacket=%s cookie=%q body=%q",
					iter, got, want, sigDump(sigs), p, p.Cookie(), p.Body)
			}
			if got := eng.MatchInto(p, sc); !equalIDs(got, want) {
				t.Fatalf("iter %d: MatchInto=%v ref=%v", iter, got, want)
			}
			if got := eng.Matches(p); got != (len(want) > 0) {
				t.Fatalf("iter %d: Matches=%v ref=%v", iter, got, want)
			}
		}
	}
}

func sigDump(sigs []*signature.Signature) string {
	out := ""
	for _, s := range sigs {
		out += fmt.Sprintf("{id=%d kind=%q host=%q views=%q toks=%q} ", s.ID, s.Kind, s.HostSuffix, s.Views, s.Tokens)
	}
	return out
}

// TestMatchIntoZeroAlloc pins the allocation budget of the scan+resolve
// core: with a warmed scratch, matching allocates nothing — for clean
// packets, matching packets, and host-filtered packets alike.
func TestMatchIntoZeroAlloc(t *testing.T) {
	set := sigSet(
		&signature.Signature{Tokens: []string{"udid=f3a9", "zone="}},
		&signature.Signature{Tokens: []string{"imei=3539"}, HostSuffix: "ads.example"},
		&signature.Signature{Tokens: []string{"sess="}},
	)
	e := NewEngine(set)
	sc := e.NewScratch()
	packets := []*httpmodel.Packet{
		adPkt("x.ads.example", "/a?zone=1&udid=f3a9"), // matches 0
		adPkt("x.ads.example", "/a?imei=3539"),        // matches 1
		adPkt("elsewhere.example", "/a?imei=3539"),    // host prefilter rejects
		adPkt("x.ads.example", "/benign"),             // clean
	}
	for _, p := range packets {
		e.MatchInto(p, sc) // warm (first call sizes the scratch)
	}
	for i, p := range packets {
		p := p
		allocs := testing.AllocsPerRun(200, func() { e.MatchInto(p, sc) })
		if allocs != 0 {
			t.Errorf("packet %d: MatchInto allocated %v per run, want 0", i, allocs)
		}
	}
}

// TestScratchKeepsNoPacketReachable: after MatchInto returns, neither a
// held scratch nor the engine's pooled one keeps the packet it matched
// reachable, so one GC frees the packet, body included, while both stay
// in use. The request line and cookie are copied into the scratch; the
// body is aliased, so this fails if MatchInto keeps its body reference.
func TestScratchKeepsNoPacketReachable(t *testing.T) {
	e := NewEngine(sigSet(&signature.Signature{Tokens: []string{"udid=f3a9", "zone="}}))
	sc := e.NewScratch()
	var pkts []weak.Pointer[httpmodel.Packet]
	var bodies []weak.Pointer[byte]
	for i := 0; i < 2; i++ {
		p := httpmodel.Post("x.example", "/a?zone=1").Dest(1, 80).
			Cookie("sid=abc123").BodyString(strings.Repeat("udid=f3a9&pad=", 8)).Build()
		if i == 0 {
			e.MatchInto(p, sc)
		} else {
			e.MatchPacket(p)
		}
		pkts = append(pkts, weak.Make(p))
		bodies = append(bodies, weak.Make(&p.Body[0]))
	}
	runtime.GC()
	for i := range pkts {
		if pkts[i].Value() != nil || bodies[i].Value() != nil {
			t.Errorf("scratch %d keeps its last packet reachable after one GC", i)
		}
	}
	runtime.KeepAlive(sc)
	runtime.KeepAlive(e)
}

// TestScratchAdoptsNewEngine proves the stale-scratch guard: a scratch
// warmed on a small engine handed to a much larger one (more tokens, more
// signatures, more states — the hot-reload shape) is resized instead of
// indexing out of bounds, and still produces correct results.
func TestScratchAdoptsNewEngine(t *testing.T) {
	small := NewEngine(sigSet(&signature.Signature{Tokens: []string{"aa"}}))
	sigs := make([]*signature.Signature, 100)
	for i := range sigs {
		sigs[i] = &signature.Signature{Tokens: []string{fmt.Sprintf("token-%03d=", i), "common="}}
	}
	large := NewEngine(sigSet(sigs...))

	sc := small.NewScratch()
	p := adPkt("x.example", "/a?aa")
	if got := small.MatchInto(p, sc); len(got) != 1 {
		t.Fatalf("small engine: %v", got)
	}
	p2 := adPkt("x.example", "/a?token-042=&common=")
	if got := large.MatchInto(p2, sc); len(got) != 1 || got[0] != 42 {
		t.Fatalf("large engine with adopted scratch: %v", got)
	}
	// And back: shrinking must be just as safe.
	if got := small.MatchInto(p, sc); len(got) != 1 {
		t.Fatalf("small engine after shrink: %v", got)
	}
}

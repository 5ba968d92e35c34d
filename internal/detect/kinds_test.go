package detect

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"testing"

	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
	"leaksig/internal/signature"
)

// viewJoined materializes one view's content stream for a packet the way
// verifyOrdered does: each field's decoded spans, '\n'-terminated, in
// field order.
func viewJoined(p *httpmodel.Packet, v httpmodel.View) []byte {
	var vs httpmodel.ViewScratch
	var buf []byte
	reqline := []byte(p.Method + " " + p.Path + " " + p.Proto)
	cookie := []byte(p.Cookie())
	for _, field := range [][]byte{reqline, cookie, p.Body} {
		httpmodel.VisitDecodedView(v, field, &vs, func(dec []byte) {
			buf = append(buf, dec...)
			buf = append(buf, '\n')
		})
	}
	return buf
}

// refKindMatch is the per-kind reference for '\n'-free tokens: a
// conjunction token counts as present when it occurs in the raw content
// or in any opted view's joined stream; a subsequence matches when the
// ordered walk succeeds over the raw content or over any single opted
// view's joined stream.
func refKindMatch(set *signature.Set, p *httpmodel.Packet) []int {
	raw := p.Content()
	streams := map[httpmodel.View][]byte{}
	stream := func(v httpmodel.View) []byte {
		s, ok := streams[v]
		if !ok {
			s = viewJoined(p, v)
			streams[v] = s
		}
		return s
	}
	var out []int
	for _, sig := range set.Signatures {
		if len(sig.Tokens) == 0 || !signature.ValidKind(sig.Kind) {
			continue
		}
		if !signature.HostMatchesSuffix(p.Host, sig.HostSuffix) {
			continue
		}
		mask := httpmodel.ViewMaskOf(sig.Views)
		matched := false
		if sig.EffectiveKind() == signature.KindSubsequence {
			matched = signature.MatchesOrdered(sig.Tokens, raw)
			for v := httpmodel.View(0); v < httpmodel.NumViews && !matched; v++ {
				if mask.Has(v) {
					matched = signature.MatchesOrdered(sig.Tokens, stream(v))
				}
			}
		} else {
			matched = true
			for _, tok := range sig.Tokens {
				present := bytes.Contains(raw, []byte(tok))
				for v := httpmodel.View(0); v < httpmodel.NumViews && !present; v++ {
					if mask.Has(v) {
						present = bytes.Contains(stream(v), []byte(tok))
					}
				}
				if !present {
					matched = false
					break
				}
			}
		}
		if matched {
			out = append(out, sig.ID)
		}
	}
	return out
}

// TestDifferentialKindedEngineVsReference fuzzes mixed-kind sets —
// conjunctions with and without views, subsequence signatures — against
// packets whose bodies carry vocab tokens in the clear or base64-, hex-,
// URL- or gzip-encoded, and asserts the compiled engine agrees with the
// per-kind reference semantics. Tokens are '\n'-free so per-field and
// whole-content containment coincide (the raw field-boundary cases are
// TestDifferentialEngineVsReference's job).
func TestDifferentialKindedEngineVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	vocab := []string{
		"imei=356938035", "aid=9774d56d68", "sessAAAA", "zone=42&b",
		"carrier=docomo", "lat=35.6812&x",
	}
	hosts := []string{"a.ads.example", "track.example", "cdn.other"}
	suffixes := []string{"", "ads.example", "example", "absent.example"}
	allViews := signature.KnownViews()

	encodeBody := func(clear []byte) []byte {
		switch rng.Intn(5) {
		case 0:
			return append([]byte("p="), []byte(base64.StdEncoding.EncodeToString(clear))...)
		case 1:
			return append([]byte("p="), []byte(hex.EncodeToString(clear))...)
		case 2:
			return []byte("p=" + url.QueryEscape(string(clear)))
		case 3:
			var b bytes.Buffer
			zw := gzip.NewWriter(&b)
			zw.Write(clear)
			zw.Close()
			return b.Bytes()
		}
		return clear
	}

	randPacket := func() *httpmodel.Packet {
		clear := ""
		for i := 0; i < 1+rng.Intn(4); i++ {
			clear += vocab[rng.Intn(len(vocab))] + "&"
		}
		path := "/c"
		if rng.Intn(3) == 0 {
			path = "/c?" + vocab[rng.Intn(len(vocab))]
		}
		return httpmodel.Post(hosts[rng.Intn(len(hosts))], path).
			Dest(ipaddr.MustParse("203.0.113.9"), 80).
			Body(encodeBody([]byte(clear))).
			Build()
	}

	randSig := func(id int) *signature.Signature {
		nTok := 1 + rng.Intn(3)
		toks := make([]string, nTok)
		for i := range toks {
			toks[i] = vocab[rng.Intn(len(vocab))]
		}
		sig := &signature.Signature{
			ID:         id,
			Tokens:     toks,
			HostSuffix: suffixes[rng.Intn(len(suffixes))],
		}
		switch rng.Intn(4) {
		case 0:
			sig.Kind = signature.KindConjunction
		case 1, 2:
			sig.Kind = signature.KindSubsequence
		}
		for _, v := range allViews {
			if rng.Intn(3) == 0 {
				sig.Views = append(sig.Views, v)
			}
		}
		return sig
	}

	for iter := 0; iter < 200; iter++ {
		nSigs := 1 + rng.Intn(6)
		sigs := make([]*signature.Signature, nSigs)
		for i := range sigs {
			sigs[i] = randSig(i)
		}
		set := &signature.Set{Signatures: sigs}
		eng := NewEngine(set)
		sc := eng.NewScratch()
		for k := 0; k < 8; k++ {
			p := randPacket()
			want := refKindMatch(set, p)
			if got := eng.MatchInto(p, sc); !equalIDs(got, want) {
				t.Fatalf("iter %d: MatchInto=%v ref=%v\nsigs=%s\npacket host=%s path=%q body=%q",
					iter, got, want, sigDump(sigs), p.Host, p.Path, p.Body)
			}
			if got := eng.MatchPacket(p); !equalIDs(got, want) {
				t.Fatalf("iter %d: MatchPacket=%v ref=%v", iter, got, want)
			}
		}
	}
}

// TestLegacyKindAbsentSet proves wire compatibility: a set serialized
// before kinds existed (no "kind" field anywhere) parses, compiles and
// matches identically to the same set with the kind spelled out, and its
// signature keys are byte-identical to the legacy key format.
func TestLegacyKindAbsentSet(t *testing.T) {
	legacyJSON := `{
	  "signatures": [
	    {"id": 0, "tokens": ["udid=f3a9", "zone="], "cluster_size": 3},
	    {"id": 1, "tokens": ["imei=3569"], "host_suffix": "ads.example", "cluster_size": 2}
	  ],
	  "training_size": 5
	}`
	legacy, err := signature.ReadJSON(bytes.NewReader([]byte(legacyJSON)))
	if err != nil {
		t.Fatal(err)
	}
	if err := legacy.Validate(); err != nil {
		t.Fatalf("legacy set failed validation: %v", err)
	}
	explicit := &signature.Set{TrainingSize: 5}
	for _, s := range legacy.Signatures {
		c := *s
		c.Kind = signature.KindConjunction
		explicit.Signatures = append(explicit.Signatures, &c)
	}
	for i := range legacy.Signatures {
		lk, ek := legacy.Signatures[i].Key(), explicit.Signatures[i].Key()
		if lk != ek {
			t.Errorf("sig %d: kind-absent key %q != explicit-conjunction key %q", i, lk, ek)
		}
	}
	// The legacy key format itself: host + NUL + sorted tokens.
	if want := "\x00udid=f3a9\x00zone="; legacy.Signatures[0].Key() != want {
		t.Errorf("legacy key format shifted: %q", legacy.Signatures[0].Key())
	}

	le, ee := NewEngine(legacy), NewEngine(explicit)
	pkts := []*httpmodel.Packet{
		adPkt("x.ads.example", "/a?zone=1&udid=f3a9"),
		adPkt("x.ads.example", "/a?imei=3569"),
		adPkt("elsewhere.example", "/a?imei=3569"),
		adPkt("x.ads.example", "/benign"),
	}
	for i, p := range pkts {
		lg, eg := le.MatchPacket(p), ee.MatchPacket(p)
		if !equalIDs(lg, eg) {
			t.Errorf("packet %d: legacy=%v explicit=%v", i, lg, eg)
		}
	}

	// Re-serializing the legacy set must not invent a kind field.
	var buf bytes.Buffer
	if err := legacy.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"kind"`)) {
		t.Errorf("kind-absent set gained a kind on rewrite:\n%s", buf.String())
	}
}

// TestKindedSetJSONRoundTrip pushes a mixed-kind set through the wire
// format and asserts the compiled behavior survives.
func TestKindedSetJSONRoundTrip(t *testing.T) {
	set := sigSet(
		&signature.Signature{Tokens: []string{"imei=3569"}},
		&signature.Signature{Kind: signature.KindSubsequence,
			Tokens: []string{"imei=3569", "aid=9774"}, Views: []string{"base64"}},
	)
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := signature.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	b2, _ := json.Marshal(set)
	json.Unmarshal(b2, &raw)

	secret := "imei=3569&aid=9774"
	enc := base64.StdEncoding.EncodeToString([]byte(secret))
	p := httpmodel.Post("x.example", "/c").
		Dest(ipaddr.MustParse("203.0.113.9"), 80).
		Body([]byte("p=" + enc)).Build()
	eng := NewEngine(back)
	got := eng.MatchPacket(p)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("round-tripped subsequence+views signature did not match: %v", got)
	}
}

// TestUnknownKindNeverMatches pins the compile guard: a signature with a
// kind this engine cannot compile is inert rather than a crash or a
// misfire as a conjunction.
func TestUnknownKindNeverMatches(t *testing.T) {
	set := sigSet(
		&signature.Signature{Kind: "regex", Tokens: []string{"imei="}},
		&signature.Signature{Tokens: []string{"imei="}},
	)
	eng := NewEngine(set)
	got := eng.MatchPacket(adPkt("x.example", "/a?imei=3569"))
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("unknown-kind signature leaked into matching: %v", got)
	}
}

// TestKindedZeroAllocFastPath proves a view-free mixed set (conjunctions
// plus a view-less subsequence) still matches without allocating after
// warm-up: the view machinery only costs when a compiled signature
// actually opts into views.
func TestKindedZeroAllocFastPath(t *testing.T) {
	set := sigSet(
		&signature.Signature{Tokens: []string{"udid=f3a9", "zone="}},
		&signature.Signature{Kind: signature.KindSubsequence,
			Tokens: []string{"udid=f3a9", "zone="}},
	)
	e := NewEngine(set)
	sc := e.NewScratch()
	pkts := []*httpmodel.Packet{
		adPkt("x.ads.example", "/a?udid=f3a9&zone=1"), // both kinds match
		adPkt("x.ads.example", "/a?zone=1&udid=f3a9"), // conjunction only
		adPkt("x.ads.example", "/benign"),
	}
	for _, p := range pkts {
		e.MatchInto(p, sc)
	}
	for i, p := range pkts {
		p := p
		allocs := testing.AllocsPerRun(200, func() { e.MatchInto(p, sc) })
		if allocs != 0 {
			t.Errorf("packet %d: MatchInto allocated %v per run, want 0", i, allocs)
		}
	}
	if got := e.MatchInto(pkts[0], sc); len(got) != 2 {
		t.Fatalf("both kinds should match ordered packet: %v", got)
	}
	if got := e.MatchInto(pkts[1], sc); len(got) != 1 || got[0] != 0 {
		t.Fatalf("reversed packet should match the conjunction only: %v", got)
	}
}

// matchExtLinear is the linear scan the token index replaced, kept as
// the reference for it: every kinded program whose host bucket is live
// runs its predicate, written out here independently of kindMatches. It
// reads the scan state MatchInto left in sc, so call it right after
// MatchInto on the same packet; it returns the matching signature
// indices in program order.
func (e *Engine) matchExtLinear(p *httpmodel.Packet, sc *Scratch) []int32 {
	var out []int32
	for i := range e.kinded {
		pr := &e.kinded[i]
		if sc.bucketGen[e.sigBucket[pr.si]] != sc.cur {
			continue
		}
		if pr.toks == nil {
			ok := true
			for _, t := range pr.tokens {
				if bitSet(sc.occ, t) {
					continue
				}
				found := false
				for v := httpmodel.View(0); v < httpmodel.NumViews; v++ {
					if pr.views.Has(v) && bitSet(sc.occView[v], t) {
						found = true
						break
					}
				}
				if !found {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, pr.si)
			}
			continue
		}
		if allBits(sc.occ, pr.tokens) && e.verifyOrdered(p, pr, rawStream, sc) {
			out = append(out, pr.si)
			continue
		}
		for v := httpmodel.View(0); v < httpmodel.NumViews; v++ {
			if pr.views.Has(v) && allBits(sc.occView[v], pr.tokens) &&
				e.verifyOrdered(p, pr, v, sc) {
				out = append(out, pr.si)
				break
			}
		}
	}
	return out
}

// TestDifferentialKindedIndexVsScan holds the token-indexed kinded path
// to the linear scan it replaced and to the per-kind reference, on sets
// of up to 120 signatures over a 160-token vocabulary (occurrence
// bitsets three words wide). Sets mix fast conjunctions, view
// conjunctions and subsequences that share tokens; signatures repeat
// tokens, packets carry tokens only inside encoded bodies, and host
// suffixes miss.
func TestDifferentialKindedIndexVsScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	vocab := make([]string, 160)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("k%03d=%04x", i, rng.Intn(1<<16))
	}
	hosts := []string{"a.ads.example", "track.example", "cdn.other"}
	suffixes := []string{"", "", "ads.example", "example", "absent.example"}
	cookieNames := []string{"Cookie", "cookie", "COOKIE", "CooKie"}
	allViews := signature.KnownViews()

	encode := func(clear []byte) []byte {
		switch rng.Intn(5) {
		case 0:
			return []byte(base64.StdEncoding.EncodeToString(clear))
		case 1:
			return []byte(hex.EncodeToString(clear))
		case 2:
			return []byte(url.QueryEscape(string(clear)))
		case 3:
			var b bytes.Buffer
			zw := gzip.NewWriter(&b)
			zw.Write(clear)
			zw.Close()
			return b.Bytes()
		}
		return clear
	}
	// randPacket plants its tokens in the path, a cookie and the body;
	// the body is often encoded, so its tokens occur only in a view.
	randPacket := func() (*httpmodel.Packet, []string) {
		toks := make([]string, 2+rng.Intn(6))
		for i := range toks {
			toks[i] = vocab[rng.Intn(len(vocab))]
		}
		path := "/c?" + toks[0]
		var body []byte
		for _, tok := range toks[2:] {
			body = append(body, tok...)
			body = append(body, '&')
		}
		b := httpmodel.Post(hosts[rng.Intn(len(hosts))], path).
			Dest(ipaddr.MustParse("203.0.113.9"), 80).
			Body(encode(body))
		if rng.Intn(2) == 0 {
			b = b.Header(cookieNames[rng.Intn(len(cookieNames))], toks[1])
		}
		return b.Build(), toks
	}
	// randSig draws most tokens from one packet's tokens, in order or
	// not, so a fair share of signatures match something.
	randSig := func(id int, from []string) *signature.Signature {
		nTok := 1 + rng.Intn(3)
		toks := make([]string, 0, nTok+1)
		for i := 0; i < nTok; i++ {
			tok := from[rng.Intn(len(from))]
			if rng.Intn(6) == 0 {
				tok = vocab[rng.Intn(len(vocab))]
			}
			toks = append(toks, tok)
		}
		if rng.Intn(4) == 0 {
			toks = append(toks, toks[rng.Intn(len(toks))]) // duplicate token
		}
		sig := &signature.Signature{
			ID:         id,
			Tokens:     toks,
			HostSuffix: suffixes[rng.Intn(len(suffixes))],
		}
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			return sig // fast conjunction
		case 4, 5, 6:
			sig.Kind = signature.KindSubsequence
		}
		for _, v := range allViews {
			if rng.Intn(2) == 0 {
				sig.Views = append(sig.Views, v)
			}
		}
		if sig.Kind == "" && len(sig.Views) == 0 {
			sig.Views = []string{"base64"}
		}
		return sig
	}

	var kindedHits, matched int
	for iter := 0; iter < 60; iter++ {
		pkts := make([]*httpmodel.Packet, 16)
		pktToks := make([][]string, len(pkts))
		for i := range pkts {
			pkts[i], pktToks[i] = randPacket()
		}
		sigs := make([]*signature.Signature, 1+rng.Intn(120))
		for i := range sigs {
			sigs[i] = randSig(i, pktToks[rng.Intn(len(pkts))])
		}
		if iter%2 == 0 {
			// A conjunction of the whole vocabulary never matches; as
			// signature 0 it numbers the tokens in vocabulary order, so
			// kinded tokens land in every word of the bitset.
			sigs[0] = &signature.Signature{Tokens: vocab}
		}
		set := &signature.Set{Signatures: sigs}
		eng := NewEngine(set)
		if words := eng.matcher.BitsetWords(); iter%2 == 0 && words < 3 {
			t.Fatalf("iter %d: bitset is %d words, want at least 3", iter, words)
		}
		sc := eng.NewScratch()
		for _, p := range pkts {
			want := refKindMatch(set, p)
			got := eng.MatchInto(p, sc)
			if !equalIDs(got, want) {
				t.Fatalf("iter %d: MatchInto=%v ref=%v\nsigs=%s\npacket host=%s path=%q headers=%q body=%q",
					iter, got, want, sigDump(sigs), p.Host, p.Path, p.Headers, p.Body)
			}
			var indexed []int
			for _, id := range got {
				if eng.needed[id] == 0 {
					indexed = append(indexed, id)
				}
			}
			var scan []int
			for _, si := range eng.matchExtLinear(p, sc) {
				scan = append(scan, int(si))
			}
			sort.Ints(scan)
			if !equalIDs(indexed, scan) {
				t.Fatalf("iter %d: indexed kinded=%v linear scan=%v\nsigs=%s", iter, indexed, scan, sigDump(sigs))
			}
			kindedHits += len(scan)
			matched += len(want)
		}
	}
	if kindedHits < 100 {
		t.Fatalf("only %d kinded matches across the run (%d total); the sets exercise too little", kindedHits, matched)
	}
}

// TestCookieNameFoldsASCIIOnly pins one rule for which headers form the
// cookie field: a name equal to "Cookie" under ASCII case folding. A
// header named with the Kelvin sign (U+212A), which Unicode folds to
// 'k', is not a cookie for the prefilter scan, the ordered verify or
// Packet.Content alike, so the engine and the reference agree.
func TestCookieNameFoldsASCIIOnly(t *testing.T) {
	set := sigSet(&signature.Signature{Kind: signature.KindSubsequence,
		Tokens: []string{"imei=3569", "aid=9774"}})
	eng := NewEngine(set)
	for _, tc := range []struct {
		name string
		want int
	}{{"CooKie", 1}, {"cOOKIE", 1}, {"CooKie", 0}} {
		p := httpmodel.Get("x.example", "/a").Dest(1, 80).
			Header(tc.name, "imei=3569&aid=9774").Build()
		got, ref := eng.MatchPacket(p), refKindMatch(set, p)
		if !equalIDs(got, ref) {
			t.Fatalf("header %q: engine=%v reference=%v", tc.name, got, ref)
		}
		if len(got) != tc.want {
			t.Fatalf("header %q: matched %v, want %d matches", tc.name, got, tc.want)
		}
	}
}

// TestKindedZeroAllocWithViews pins the indexed kinded path at zero
// allocations per packet with decode views compiled: view conjunctions
// and a subsequence opted into base64, over packets that match through
// a view, through raw content, and not at all.
func TestKindedZeroAllocWithViews(t *testing.T) {
	set := sigSet(
		&signature.Signature{Tokens: []string{"imei=3569", "aid=9774"}, Views: []string{"base64", "url"}},
		&signature.Signature{Tokens: []string{"udid=f3a9"}, Views: []string{"hex"}},
		&signature.Signature{Kind: signature.KindSubsequence,
			Tokens: []string{"imei=3569", "aid=9774"}, Views: []string{"base64"}},
	)
	e := NewEngine(set)
	sc := e.NewScratch()
	post := func(body string) *httpmodel.Packet {
		return httpmodel.Post("x.example", "/c").Dest(ipaddr.MustParse("203.0.113.9"), 80).
			BodyString(body).Build()
	}
	pkts := []struct {
		p    *httpmodel.Packet
		want int
	}{
		{post("p=" + base64.StdEncoding.EncodeToString([]byte("imei=3569&aid=9774"))), 2}, // through base64
		{post("p=" + hex.EncodeToString([]byte("udid=f3a9&x=1"))), 1},                     // through hex
		{post("imei=3569&aid=9774"), 2},                                                   // raw content
		{post("aid=9774&imei=3569"), 1},                                                   // raw, out of order
		{post("nothing=here"), 0},
	}
	for i, tc := range pkts {
		if got := e.MatchInto(tc.p, sc); len(got) != tc.want {
			t.Fatalf("packet %d: matched %v, want %d matches", i, got, tc.want)
		}
	}
	for i, tc := range pkts {
		p := tc.p
		allocs := testing.AllocsPerRun(200, func() { e.MatchInto(p, sc) })
		if allocs != 0 {
			t.Errorf("packet %d: MatchInto allocated %v per run, want 0", i, allocs)
		}
	}
}

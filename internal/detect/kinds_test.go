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
	"sync"
	"testing"

	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
	"leaksig/internal/reference"
	"leaksig/internal/signature"
)

// kindedRows are fixed one-signature cases of the per-kind rules: each
// row's packet must match (or not) under detect.Engine and
// reference.Match alike.
var kindedRows = []struct {
	name                     string
	sig                      signature.Signature
	host, path, cookie, body string
	want                     bool
}{
	{name: "subsequence in order",
		sig:  signature.Signature{Kind: signature.KindSubsequence, Tokens: []string{"alpha-", "beta-", "gamma-"}},
		body: "alpha-xxbeta-yygamma-zz", want: true},
	{name: "subsequence reversed",
		sig:  signature.Signature{Kind: signature.KindSubsequence, Tokens: []string{"alpha-", "beta-", "gamma-"}},
		body: "gamma-beta-alpha-"},
	{name: "subsequence with its tail out of order",
		sig:  signature.Signature{Kind: signature.KindSubsequence, Tokens: []string{"alpha-", "beta-", "gamma-"}},
		body: "xxalpha-xx gamma- beta-"},
	{name: "subsequence missing a token",
		sig:  signature.Signature{Kind: signature.KindSubsequence, Tokens: []string{"alpha-", "beta-", "gamma-"}},
		body: "alpha-gamma-"},
	{name: "subsequence in order across fields",
		sig:  signature.Signature{Kind: signature.KindSubsequence, Tokens: []string{"aid=456", "imei=123"}},
		path: "/a?aid=456", cookie: "imei=123", want: true},
	{name: "one occurrence cannot fill two tokens",
		sig:  signature.Signature{Kind: signature.KindSubsequence, Tokens: []string{"abab", "abab"}},
		body: "abab"},
	{name: "two occurrences fill two tokens",
		sig:  signature.Signature{Kind: signature.KindSubsequence, Tokens: []string{"abab", "abab"}},
		body: "abababab", want: true},
	{name: "subsequence with no tokens",
		sig:  signature.Signature{Kind: signature.KindSubsequence},
		body: "anything"},
	{name: "conjunction with no tokens",
		sig:  signature.Signature{Views: []string{"base64"}},
		body: "anything"},
	{name: "subsequence on its host suffix",
		sig:  signature.Signature{Kind: signature.KindSubsequence, Tokens: []string{"udid="}, HostSuffix: "ads.example"},
		host: "r.ads.example", path: "/x?udid=1", want: true},
	{name: "subsequence off its host suffix",
		sig:  signature.Signature{Kind: signature.KindSubsequence, Tokens: []string{"udid="}, HostSuffix: "ads.example"},
		host: "other.jp", path: "/x?udid=1"},
	{name: "conjunction ignores order",
		sig:  signature.Signature{Tokens: []string{"imei=123", "aid=456"}, Views: []string{"hex"}},
		body: "x aid=456 y imei=123 z", want: true},
	{name: "conjunction token across a field boundary",
		sig:  signature.Signature{Tokens: []string{"HTTP/1.1\nc1d2"}},
		path: "/p?x=f3a9", cookie: "c1d2=v"},
	{name: "view conjunction token across a field boundary",
		sig:  signature.Signature{Tokens: []string{"HTTP/1.1\nc1d2"}, Views: []string{"url"}},
		path: "/p?x=f3a9", cookie: "c1d2=v"},
	{name: "subsequence in order through base64",
		sig: signature.Signature{Kind: signature.KindSubsequence,
			Tokens: []string{"imei=3569", "aid=9774"}, Views: []string{"base64"}},
		body: "p=" + base64.StdEncoding.EncodeToString([]byte("imei=3569&aid=9774")), want: true},
	{name: "subsequence reversed through base64",
		sig: signature.Signature{Kind: signature.KindSubsequence,
			Tokens: []string{"imei=3569", "aid=9774"}, Views: []string{"base64"}},
		body: "p=" + base64.StdEncoding.EncodeToString([]byte("aid=9774&imei=3569"))},
}

// TestDifferentialKindedEngineVsReference holds the compiled engine to
// reference.Match on mixed-kind sets. It first checks kindedRows, from
// eight goroutines sharing each row's engine, since matching must be
// safe for concurrent use. Then it fuzzes mixed-kind sets — conjunctions
// with and without views, subsequence signatures — against packets
// whose bodies carry vocab tokens in the clear or base64-, hex-, URL- or
// gzip-encoded. Fuzzed tokens are '\n'-free so per-field and
// whole-content containment coincide (the raw field-boundary cases are
// TestDifferentialEngineVsReference's job).
func TestDifferentialKindedEngineVsReference(t *testing.T) {
	engines := make([]*Engine, len(kindedRows))
	packets := make([]*httpmodel.Packet, len(kindedRows))
	for i, row := range kindedRows {
		sig := row.sig
		engines[i] = NewEngine(sigSet(&sig))
		host, path := row.host, row.path
		if host == "" {
			host = "x.example"
		}
		if path == "" {
			path = "/c"
		}
		b := httpmodel.Post(host, path).Dest(ipaddr.MustParse("203.0.113.9"), 80).BodyString(row.body)
		if row.cookie != "" {
			b = b.Cookie(row.cookie)
		}
		packets[i] = b.Build()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := &Scratch{}
			for iter := 0; iter < 50; iter++ {
				for i, row := range kindedRows {
					eng, p := engines[i], packets[i]
					want := []int(nil)
					if row.want {
						want = []int{0}
					}
					ref, got, into := reference.Match(eng.set, p), eng.MatchPacket(p), eng.MatchInto(p, sc)
					if !equalIDs(ref, want) || !equalIDs(got, want) || !equalIDs(into, want) {
						t.Errorf("%s: reference=%v MatchPacket=%v MatchInto=%v, want %v", row.name, ref, got, into, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

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
			want := reference.Match(set, p)
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
// MatchInto on the same packet (it reloads the packet's fields, which
// MatchInto lets go of); it returns the matching signature indices in
// program order.
func (e *Engine) matchExtLinear(p *httpmodel.Packet, sc *Scratch) []int32 {
	sc.load(p)
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
		if allBits(sc.occ, pr.tokens) && verifyOrdered(pr, rawStream, sc) {
			out = append(out, pr.si)
			continue
		}
		for v := httpmodel.View(0); v < httpmodel.NumViews; v++ {
			if pr.views.Has(v) && allBits(sc.occView[v], pr.tokens) &&
				verifyOrdered(pr, v, sc) {
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
			want := reference.Match(set, p)
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
		got, ref := eng.MatchPacket(p), reference.Match(set, p)
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

package signature

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"leaksig/internal/httpmodel"
)

// legacyKey is the pre-kind key algorithm, frozen here verbatim: host
// suffix, NUL, sorted tokens NUL-joined. View-less conjunction keys must
// never drift from it — catalog fingerprints of every set published
// before kinds existed depend on it.
func legacyKey(s *Signature) string {
	sorted := append([]string(nil), s.Tokens...)
	sort.Strings(sorted)
	return s.HostSuffix + "\x00" + strings.Join(sorted, "\x00")
}

func TestKeyStability(t *testing.T) {
	sigs := []*Signature{
		{Tokens: []string{"zzz", "aaa"}},
		{Tokens: []string{"imei=1"}, HostSuffix: "ads.example"},
		{Kind: KindConjunction, Tokens: []string{"b", "a"}},
	}
	for i, s := range sigs {
		if got, want := s.Key(), legacyKey(s); got != want {
			t.Errorf("sig %d: key %q, legacy algorithm %q", i, got, want)
		}
	}
	// Kinded and viewed keys must NOT collide with legacy keys for the
	// same tokens, and subsequence keys must be order-sensitive.
	base := &Signature{Tokens: []string{"a", "b"}}
	sub := &Signature{Kind: KindSubsequence, Tokens: []string{"a", "b"}}
	subRev := &Signature{Kind: KindSubsequence, Tokens: []string{"b", "a"}}
	viewed := &Signature{Tokens: []string{"a", "b"}, Views: []string{"hex", "base64"}}
	keys := map[string]string{
		base.Key():   "conjunction",
		sub.Key():    "subsequence",
		subRev.Key(): "subsequence reversed",
		viewed.Key(): "viewed conjunction",
	}
	if len(keys) != 4 {
		t.Errorf("kinded/viewed keys collide: %v", keys)
	}
	// Conjunction keys ignore token order; view order is canonicalized.
	if (&Signature{Tokens: []string{"b", "a"}}).Key() != base.Key() {
		t.Error("conjunction key is order-sensitive")
	}
	v2 := &Signature{Tokens: []string{"a", "b"}, Views: []string{"base64", "hex"}}
	if v2.Key() != viewed.Key() {
		t.Error("view order changed the key")
	}
}

func TestEffectiveKindAndValidate(t *testing.T) {
	if k := (&Signature{}).EffectiveKind(); k != KindConjunction {
		t.Errorf("absent kind resolves to %q", k)
	}
	if k := (&Signature{Kind: KindSubsequence}).EffectiveKind(); k != KindSubsequence {
		t.Errorf("subsequence kind resolves to %q", k)
	}
	ok := &Set{Signatures: []*Signature{
		{Tokens: []string{"a"}},
		{Kind: KindConjunction, Tokens: []string{"a"}},
		{Kind: KindSubsequence, Tokens: []string{"a"}, Views: KnownViews()},
	}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	badKind := &Set{Signatures: []*Signature{{ID: 7, Kind: "regex", Tokens: []string{"a"}}}}
	if err := badKind.Validate(); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("unknown kind accepted: %v", err)
	}
	badView := &Set{Signatures: []*Signature{{Tokens: []string{"a"}, Views: []string{"rot13"}}}}
	if err := badView.Validate(); err == nil || !strings.Contains(err.Error(), "view") {
		t.Errorf("unknown view accepted: %v", err)
	}
	if err := (&Set{Signatures: []*Signature{nil}}).Validate(); err == nil || !strings.Contains(err.Error(), "null") {
		t.Errorf("null signature accepted: %v", err)
	}
	for _, v := range KnownViews() {
		if !ValidViewName(v) {
			t.Errorf("KnownViews lists invalid view %q", v)
		}
	}
}

func TestMatchesOrdered(t *testing.T) {
	content := []byte("GET /a?imei=123&aid=456 HTTP/1.1\n\nsess=789")
	cases := []struct {
		toks []string
		want bool
	}{
		{[]string{"imei=123", "aid=456"}, true},
		{[]string{"aid=456", "imei=123"}, false}, // order matters
		{[]string{"imei=123", "imei=123"}, false},
		{[]string{"GET", "sess=789"}, true},
		{[]string{"absent"}, false},
		{nil, false},
	}
	for _, c := range cases {
		if got := MatchesOrdered(c.toks, content); got != c.want {
			t.Errorf("MatchesOrdered(%q) = %v, want %v", c.toks, got, c.want)
		}
	}
	// Overlapping occurrences: greedy must still find ["ab","ba"] in "aba"? No —
	// tokens consume their bytes, so "aba" holds "ab" then only "a".
	if MatchesOrdered([]string{"ab", "ba"}, []byte("aba")) {
		t.Error("overlapping tokens double-counted")
	}
	if !MatchesOrdered([]string{"ab", "ba"}, []byte("abba")) {
		t.Error("adjacent tokens missed")
	}
}

func TestSignatureMatchesContentByKind(t *testing.T) {
	content := []byte("x aid=456 y imei=123 z")
	conj := &Signature{Tokens: []string{"imei=123", "aid=456"}}
	if !conj.MatchesContent(content) {
		t.Error("conjunction should ignore order")
	}
	sub := &Signature{Kind: KindSubsequence, Tokens: []string{"imei=123", "aid=456"}}
	if sub.MatchesContent(content) {
		t.Error("subsequence should require order")
	}
	sub2 := &Signature{Kind: KindSubsequence, Tokens: []string{"aid=456", "imei=123"}}
	if !sub2.MatchesContent(content) {
		t.Error("ordered subsequence should match")
	}
	if (&Signature{Kind: KindSubsequence}).MatchesContent(content) {
		t.Error("token-less signature matched")
	}
}

func TestAsKinded(t *testing.T) {
	src := &SubsequenceSignature{
		ID: 3, Tokens: []string{"b", "a"}, HostSuffix: "x.example", ClusterSize: 5,
	}
	k := src.AsKinded()
	if k.Kind != KindSubsequence || k.ID != 3 || k.HostSuffix != "x.example" ||
		k.ClusterSize != 5 || strings.Join(k.Tokens, ",") != "b,a" {
		t.Fatalf("AsKinded lost fields: %+v", k)
	}
	k.Tokens[0] = "mutated"
	if src.Tokens[0] != "b" {
		t.Error("AsKinded aliases the source token slice")
	}
}

// TestSubsequenceSetConcurrentMatches exercises one SubsequenceSet (and
// its kinded promotions) from many goroutines under -race: matching is
// read-only and must be safe to share.
func TestSubsequenceSetConcurrentMatches(t *testing.T) {
	set := &SubsequenceSet{Signatures: []*SubsequenceSignature{
		{ID: 0, Tokens: []string{"imei=123", "aid=456"}},
		{ID: 1, Tokens: []string{"sess="}, HostSuffix: "ads.example"},
	}}
	mk := func(host, path string) *httpmodel.Packet {
		return &httpmodel.Packet{Method: "GET", Host: host, Path: path, Proto: "HTTP/1.1"}
	}
	pkts := []*httpmodel.Packet{
		mk("x.ads.example", "/a?imei=123&aid=456"),
		mk("x.ads.example", "/a?aid=456&imei=123"),
		mk("x.ads.example", "/a?sess=1"),
		mk("other.example", "/a?sess=1"),
	}
	want := []bool{true, false, true, false}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 500; iter++ {
				for i, p := range pkts {
					if got := set.Matches(p); got != want[i] {
						t.Errorf("packet %d: Matches=%v want %v", i, got, want[i])
						return
					}
					kinded := set.Signatures[i%2].AsKinded()
					_ = kinded.MatchesContent(p.Content())
				}
			}
		}()
	}
	wg.Wait()
}

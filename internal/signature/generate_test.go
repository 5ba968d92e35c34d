package signature_test

import (
	"strings"
	"testing"

	"leaksig/internal/detect"
	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
	"leaksig/internal/signature"
)

// assertSubsequenceKind fails unless every signature of set is a
// subsequence signature.
func assertSubsequenceKind(t *testing.T, set *signature.Set) {
	t.Helper()
	for _, sig := range set.Signatures {
		if sig.Kind != signature.KindSubsequence {
			t.Errorf("%v: kind %q, want %q", sig, sig.Kind, signature.KindSubsequence)
		}
	}
}

func TestGenerateSubsequence(t *testing.T) {
	mk := func(seq string) *httpmodel.Packet {
		return httpmodel.Get("ads.x.jp", "/fetch").
			Query("zone", seq).
			Query("udid", "f3a9c1d200b14e67").
			Query("seq", seq+seq).
			Dest(ipaddr.MustParse("203.0.113.4"), 80).Build()
	}
	cluster := []*httpmodel.Packet{mk("1"), mk("2"), mk("37")}
	set := signature.GenerateSubsequence([][]*httpmodel.Packet{cluster}, signature.Options{})
	if set.Len() != 1 {
		t.Fatalf("signatures = %d", set.Len())
	}
	assertSubsequenceKind(t, set)
	sig := set.Signatures[0]
	if len(sig.Tokens) < 2 {
		t.Fatalf("tokens = %q, want at least two to order", sig.Tokens)
	}
	// A fresh packet of the module matches; the same tokens in reverse
	// order do not, though the conjunction of them does.
	eng := detect.NewEngine(set)
	if !eng.Matches(mk("9")) {
		t.Error("fresh module packet missed")
	}
	reversed := make([]string, len(sig.Tokens))
	for i, tok := range sig.Tokens {
		reversed[len(reversed)-1-i] = tok
	}
	p := httpmodel.Post("ads.x.jp", "/other").Dest(ipaddr.MustParse("203.0.113.4"), 80).
		BodyString(strings.Join(reversed, " ")).Build()
	if eng.Matches(p) {
		t.Error("reversed token order matched")
	}
	conj := &signature.Set{Signatures: []*signature.Signature{{Tokens: sig.Tokens}}}
	if !detect.NewEngine(conj).Matches(p) {
		t.Error("the reversed packet lacks a token, so it cannot show that order matters")
	}
}

func TestGenerateSubsequenceRespectsMinClusterSize(t *testing.T) {
	single := []*httpmodel.Packet{
		httpmodel.Get("a.jp", "/x?udid=f3a9c1d200b14e67").Dest(1, 80).Build(),
	}
	set := signature.GenerateSubsequence([][]*httpmodel.Packet{single}, signature.Options{MinClusterSize: 2})
	if set.Len() != 0 {
		t.Errorf("singleton produced %d signatures", set.Len())
	}
	if set.TrainingSize != 1 {
		t.Errorf("TrainingSize = %d", set.TrainingSize)
	}
	pair := append(single, httpmodel.Get("a.jp", "/x?udid=f3a9c1d200b14e67").Dest(1, 80).Build())
	set = signature.GenerateSubsequence([][]*httpmodel.Packet{single, pair}, signature.Options{MinClusterSize: 2})
	if set.Len() != 1 {
		t.Errorf("pair produced %d signatures", set.Len())
	}
	assertSubsequenceKind(t, set)
}

func TestGenerateSubsequenceDeduplicates(t *testing.T) {
	mk := func(seq string) *httpmodel.Packet {
		return httpmodel.Get("ads.x.jp", "/fetch?udid=f3a9c1d200b14e67&r="+seq).
			Dest(ipaddr.MustParse("203.0.113.4"), 80).Build()
	}
	cl := []*httpmodel.Packet{mk("1"), mk("2")}
	set := signature.GenerateSubsequence([][]*httpmodel.Packet{cl, cl}, signature.Options{})
	if set.Len() != 1 {
		t.Errorf("duplicate clusters produced %d signatures", set.Len())
	}
	assertSubsequenceKind(t, set)
}

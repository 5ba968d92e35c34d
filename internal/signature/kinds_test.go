package signature

import (
	"sort"
	"strings"
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
	for _, sig := range []*Signature{
		{ID: 3, Tokens: []string{""}},
		{ID: 3, Tokens: []string{"", "udid="}},
		{ID: 3, Kind: KindSubsequence, Tokens: []string{"udid=", ""}},
		{ID: 3, Kind: KindSubsequence, Tokens: []string{""}, Views: []string{"base64"}},
	} {
		err := (&Set{Signatures: []*Signature{sig}}).Validate()
		if err == nil || !strings.Contains(err.Error(), "empty") {
			t.Errorf("empty token accepted in %v: %v", sig, err)
		}
	}
	if views := KnownViews(); len(views) != int(httpmodel.NumViews) || !sort.StringsAreSorted(views) {
		t.Errorf("KnownViews = %q, want all %d views sorted", views, httpmodel.NumViews)
	}
}

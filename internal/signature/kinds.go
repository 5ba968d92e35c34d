package signature

// Signature kinds. The wire format stays a single Signature struct; Kind
// selects the matching discipline and an absent (empty) kind means
// conjunction, so every set published before kinds existed parses and
// matches exactly as it always did.

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
)

// Signature kinds. KindConjunction is the paper's unordered token set
// (every token must occur somewhere in the content); KindSubsequence is
// Polygraph's ordered token list (every token must occur in order, gaps
// allowed). The empty string is the legacy wire spelling of conjunction.
const (
	KindConjunction = "conjunction"
	KindSubsequence = "subsequence"
)

// EffectiveKind resolves the wire kind: an absent kind is a conjunction.
func (s *Signature) EffectiveKind() string {
	if s.Kind == "" {
		return KindConjunction
	}
	return s.Kind
}

// ValidKind reports whether k is a kind this engine can compile. The
// empty string (legacy conjunction) is valid.
func ValidKind(k string) bool {
	switch k {
	case "", KindConjunction, KindSubsequence:
		return true
	}
	return false
}

// KnownViews lists the decode views a signature may opt into, in
// canonical order. Each name selects one transformed view of the packet
// content that the matcher scans in addition to the raw bytes.
func KnownViews() []string { return []string{"base64", "gzip", "hex", "url"} }

// ValidViewName reports whether v names a known decode view.
func ValidViewName(v string) bool {
	switch v {
	case "base64", "gzip", "hex", "url":
		return true
	}
	return false
}

// Validate checks that every signature carries a compilable kind and
// known view names, so a typo'd kind is rejected at the publish boundary
// instead of silently never matching in the fleet. A null entry (JSON
// `null` in the signatures array) is rejected too.
func (s *Set) Validate() error {
	for i, sig := range s.Signatures {
		if sig == nil {
			return fmt.Errorf("signature: entry %d is null", i)
		}
		if !ValidKind(sig.Kind) {
			return fmt.Errorf("signature: sig %d: unknown kind %q", sig.ID, sig.Kind)
		}
		for _, v := range sig.Views {
			if !ValidViewName(v) {
				return fmt.Errorf("signature: sig %d: unknown view %q", sig.ID, v)
			}
		}
	}
	return nil
}

// viewsKey renders the views as a canonical sorted fragment for Key().
func viewsKey(views []string) string {
	vs := append([]string(nil), views...)
	sort.Strings(vs)
	return strings.Join(vs, ",")
}

// MatchesOrdered reports whether the tokens occur in order (gaps allowed)
// within content, the subsequence-kind matching discipline. The greedy
// left-to-right walk is exact: taking the earliest occurrence of each
// token always leaves the most room for the rest.
func MatchesOrdered(tokens []string, content []byte) bool {
	if len(tokens) == 0 {
		return false
	}
	pos := 0
	for _, tok := range tokens {
		idx := bytes.Index(content[pos:], []byte(tok))
		if idx < 0 {
			return false
		}
		pos += idx + len(tok)
	}
	return true
}

// MatchesContent applies the signature's kind discipline to one content
// buffer, ignoring the host constraint. This is the per-kind reference
// semantics the compiled engine must agree with.
func (s *Signature) MatchesContent(content []byte) bool {
	if len(s.Tokens) == 0 {
		return false
	}
	if s.EffectiveKind() == KindSubsequence {
		return MatchesOrdered(s.Tokens, content)
	}
	for _, tok := range s.Tokens {
		if !bytes.Contains(content, []byte(tok)) {
			return false
		}
	}
	return true
}

// AsKinded promotes a SubsequenceSignature into the published kinded
// model, preserving token order, host constraint, and provenance.
func (s *SubsequenceSignature) AsKinded() *Signature {
	return &Signature{
		ID:          s.ID,
		Kind:        KindSubsequence,
		Tokens:      append([]string(nil), s.Tokens...),
		HostSuffix:  s.HostSuffix,
		ClusterSize: s.ClusterSize,
	}
}

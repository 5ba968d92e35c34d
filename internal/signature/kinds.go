package signature

// Signature kinds. The wire format stays a single Signature struct; Kind
// selects the matching discipline and an absent (empty) kind means
// conjunction, so every set published before kinds existed parses and
// matches exactly as it always did.

import (
	"fmt"
	"sort"
	"strings"

	"leaksig/internal/httpmodel"
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

// KnownViews lists the decode views a signature may opt into, sorted by
// name. Each name selects one transformed view of the packet content that
// the matcher scans in addition to the raw bytes.
func KnownViews() []string {
	names := make([]string, httpmodel.NumViews)
	for v := range names {
		names[v] = httpmodel.View(v).String()
	}
	sort.Strings(names)
	return names
}

// Validate checks that every signature carries a compilable kind, known
// view names and no empty token, so a typo'd kind or a token that can
// never occur is rejected at the publish boundary instead of silently
// never matching in the fleet. A null entry (JSON `null` in the
// signatures array) is rejected too.
func (s *Set) Validate() error {
	for i, sig := range s.Signatures {
		if sig == nil {
			return fmt.Errorf("signature: entry %d is null", i)
		}
		if !ValidKind(sig.Kind) {
			return fmt.Errorf("signature: sig %d: unknown kind %q", sig.ID, sig.Kind)
		}
		for _, v := range sig.Views {
			if _, ok := httpmodel.ParseView(v); !ok {
				return fmt.Errorf("signature: sig %d: unknown view %q", sig.ID, v)
			}
		}
		for j, tok := range sig.Tokens {
			if tok == "" {
				return fmt.Errorf("signature: sig %d: token %d is empty", sig.ID, j)
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

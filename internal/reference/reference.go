// Package reference is the naive whole-packet signature matcher that the
// compiled detect.Engine is tested against. It states the packet-level
// matching semantics once, in the plainest code that can express them —
// no automaton, no token index, nothing shared with internal/detect — so
// a differential test compares the engine with the rules, not with
// another optimisation of them. It is test support: nothing on a serving
// path calls it.
package reference

import (
	"bytes"

	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
)

// Match returns the IDs of every signature in set that p matches, in
// set order:
//
//   - a signature with no tokens, an invalid kind, or a host suffix the
//     packet's host does not end with never matches;
//   - a conjunction matches when each token occurs inside one raw content
//     field (request line, cookie, body), so a token that would span a
//     field boundary is absent, or inside one decoded span of a view the
//     signature opts into;
//   - a subsequence matches when its tokens occur in order, gaps
//     allowed, in Packet.Content or in one opted view's stream: that
//     view's decoded spans of each field, each terminated by '\n'.
//
// Subsequence tokens are taken to hold no '\n', as generated ones never
// do (signature.ExtractTokens splits on it); only then can the walk over
// Packet.Content not straddle two fields. Empty tokens have no rule
// here: signature.Set.Validate refuses them.
func Match(set *signature.Set, p *httpmodel.Packet) []int {
	fields := p.ContentFields()
	var out []int
	for _, sig := range set.Signatures {
		if len(sig.Tokens) == 0 || !signature.ValidKind(sig.Kind) ||
			!signature.HostMatchesSuffix(p.Host, sig.HostSuffix) {
			continue
		}
		views := optedViews(sig)
		var matched bool
		if sig.EffectiveKind() == signature.KindSubsequence {
			matched = ordered(sig.Tokens, p.Content())
			for _, v := range views {
				matched = matched || ordered(sig.Tokens, terminated(decodedSpans(v, fields)))
			}
		} else {
			matched = true
			for _, tok := range sig.Tokens {
				if !containedInOne(fields[:], tok) && !anyView(views, fields, tok) {
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

// optedViews returns the known views sig opts into.
func optedViews(sig *signature.Signature) []httpmodel.View {
	var out []httpmodel.View
	for _, name := range sig.Views {
		if v, ok := httpmodel.ParseView(name); ok {
			out = append(out, v)
		}
	}
	return out
}

// anyView reports whether tok occurs inside one decoded span of the
// fields under any of views.
func anyView(views []httpmodel.View, fields [3][]byte, tok string) bool {
	for _, v := range views {
		if containedInOne(decodedSpans(v, fields), tok) {
			return true
		}
	}
	return false
}

// decodedSpans returns every decoded span of the fields under view v, in
// field order.
func decodedSpans(v httpmodel.View, fields [3][]byte) [][]byte {
	var vs httpmodel.ViewScratch
	var spans [][]byte
	for _, f := range fields {
		httpmodel.VisitDecodedView(v, f, &vs, func(dec []byte) {
			spans = append(spans, append([]byte(nil), dec...))
		})
	}
	return spans
}

// terminated concatenates the spans, each followed by '\n'.
func terminated(spans [][]byte) []byte {
	var out []byte
	for _, s := range spans {
		out = append(append(out, s...), '\n')
	}
	return out
}

// containedInOne reports whether tok occurs inside one of the chunks.
func containedInOne(chunks [][]byte, tok string) bool {
	for _, c := range chunks {
		if bytes.Contains(c, []byte(tok)) {
			return true
		}
	}
	return false
}

// ordered reports whether the tokens occur in order (gaps allowed)
// within content. The greedy left-to-right walk is exact: taking the
// earliest occurrence of each token always leaves the most room for the
// rest, and a token's bytes are consumed, so one occurrence cannot
// satisfy two tokens.
func ordered(tokens []string, content []byte) bool {
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

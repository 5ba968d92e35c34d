package main

// The reference matcher: plain substring search per content field, with
// none of the program's matching code (no detect, no ahocorasick). It
// states the published semantics of each signature kind:
//
//   - conjunction: the host-suffix constraint holds and every token
//     occurs inside one content field (request line, cookie, body) or
//     inside one decoded span of a view the signature opted into;
//   - subsequence: the tokens occur in order, gaps allowed, over the
//     '\n'-joined raw fields, or over the '\n'-joined decoded spans of a
//     single opted view.
//
// Tokens the benchmark generates contain no '\n', so "inside one field"
// and "inside the joined stream" agree.

import (
	"bytes"

	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
)

// streams materialises a packet's raw stream and, lazily, its view
// streams.
type streams struct {
	p     *httpmodel.Packet
	raw   []byte
	views map[string][]byte
}

func (s *streams) view(name string) []byte {
	if v, ok := s.views[name]; ok {
		return v
	}
	view, ok := httpmodel.ParseView(name)
	if !ok {
		return nil
	}
	var vs httpmodel.ViewScratch
	var buf []byte
	for _, field := range s.p.ContentFields() {
		httpmodel.VisitDecodedView(view, field, &vs, func(dec []byte) {
			buf = append(append(buf, dec...), '\n')
		})
	}
	if s.views == nil {
		s.views = map[string][]byte{}
	}
	s.views[name] = buf
	return buf
}

func orderedIn(tokens []string, content []byte) bool {
	pos := 0
	for _, tok := range tokens {
		i := bytes.Index(content[pos:], []byte(tok))
		if i < 0 {
			return false
		}
		pos += i + len(tok)
	}
	return true
}

func naiveSigMatch(sig *signature.Signature, s *streams) bool {
	if len(sig.Tokens) == 0 || !signature.HostMatchesSuffix(s.p.Host, sig.HostSuffix) {
		return false
	}
	if sig.EffectiveKind() == signature.KindSubsequence {
		if orderedIn(sig.Tokens, s.raw) {
			return true
		}
		for _, v := range sig.Views {
			if orderedIn(sig.Tokens, s.view(v)) {
				return true
			}
		}
		return false
	}
	for _, tok := range sig.Tokens {
		found := bytes.Contains(s.raw, []byte(tok))
		for i := 0; i < len(sig.Views) && !found; i++ {
			found = bytes.Contains(s.view(sig.Views[i]), []byte(tok))
		}
		if !found {
			return false
		}
	}
	return true
}

func naiveLeak(set *signature.Set, p *httpmodel.Packet) bool {
	s := &streams{p: p, raw: p.Content()}
	for _, sig := range set.Signatures {
		if naiveSigMatch(sig, s) {
			return true
		}
	}
	return false
}

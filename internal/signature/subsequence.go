package signature

// Token-subsequence signatures — Polygraph's [14] second signature class,
// included alongside the Bayes signature as part of the paper's §VI
// future-work direction. A token-subsequence signature is an ordered token
// list; a packet matches when every token occurs in order (gaps allowed),
// which is stricter than a conjunction (order matters) but still robust to
// varying gap contents.

import (
	"bytes"
	"strings"

	"leaksig/internal/httpmodel"
)

// SubsequenceSignature is one ordered token sequence.
type SubsequenceSignature struct {
	ID          int      `json:"id"`
	Tokens      []string `json:"tokens"` // must occur in this order
	HostSuffix  string   `json:"host_suffix,omitempty"`
	ClusterSize int      `json:"cluster_size"`
}

// MatchesContent reports whether the tokens occur in order within content.
func (s *SubsequenceSignature) MatchesContent(content []byte) bool {
	if len(s.Tokens) == 0 {
		return false
	}
	pos := 0
	for _, tok := range s.Tokens {
		idx := bytes.Index(content[pos:], []byte(tok))
		if idx < 0 {
			return false
		}
		pos += idx + len(tok)
	}
	return true
}

// Matches reports whether the packet satisfies the signature, including the
// optional destination constraint.
func (s *SubsequenceSignature) Matches(p *httpmodel.Packet) bool {
	if !HostMatchesSuffix(p.Host, s.HostSuffix) {
		return false
	}
	return s.MatchesContent(p.Content())
}

// Key returns a canonical identity (order-sensitive, unlike conjunction
// keys).
func (s *SubsequenceSignature) Key() string {
	return s.HostSuffix + "\x00" + strings.Join(s.Tokens, "\x00")
}

// SubsequenceSet is an ordered collection of subsequence signatures.
type SubsequenceSet struct {
	Signatures   []*SubsequenceSignature `json:"signatures"`
	TrainingSize int                     `json:"training_size"`
}

// Len returns the number of signatures.
func (s *SubsequenceSet) Len() int { return len(s.Signatures) }

// Matches reports whether any signature matches the packet.
func (s *SubsequenceSet) Matches(p *httpmodel.Packet) bool {
	content := p.Content()
	for _, sig := range s.Signatures {
		if !HostMatchesSuffix(p.Host, sig.HostSuffix) {
			continue
		}
		if sig.MatchesContent(content) {
			return true
		}
	}
	return false
}

// GenerateSubsequence produces one ordered-token signature per cluster,
// using the same extraction and filtering as the conjunction generator —
// ExtractTokens already emits tokens in left-to-right content order, which
// is exactly the subsequence the cluster members share.
func GenerateSubsequence(clusters [][]*httpmodel.Packet, opts Options) *SubsequenceSet {
	set := &SubsequenceSet{}
	seen := make(map[string]bool)
	for _, sig := range GenerateFromTokens(KindSubsequence, clusters, extractEach(clusters), opts) {
		if sig == nil {
			continue
		}
		ss := &SubsequenceSignature{Tokens: sig.Tokens, HostSuffix: sig.HostSuffix, ClusterSize: sig.ClusterSize}
		key := ss.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		ss.ID = len(set.Signatures)
		set.Signatures = append(set.Signatures, ss)
	}
	for _, cl := range clusters {
		set.TrainingSize += len(cl)
	}
	return set
}

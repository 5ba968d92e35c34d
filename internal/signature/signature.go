// Package signature generates conjunction signatures from clustered HTTP
// packets (§IV-E of the paper).
//
// A conjunction signature, following Polygraph [14], is a set of invariant
// tokens; a packet matches when every token occurs in its content. For each
// cluster in the hierarchical clustering result, the generator extracts
// "the longest common substrings" of member contents: the longest substring
// common to all members is a token, the members are split around it, and
// the two sides are processed recursively, yielding an ordered token set.
//
// The longest common substring comes from a suffix automaton over byte
// strings: build the automaton of the shortest member, then stream every
// other member through it, recording per state the longest match achieved,
// and finally take the minimum across members at each state. That finds
// the longest substring common to k strings in O(total length) time.
//
// Clustering "applied carelessly ... can produce signatures that match most
// network packets (e.g POST *, GET *, * HTTP/1.1)" (§VI). Two filters
// address this: a stoplist of protocol boilerplate, and an optional
// benign-frequency filter that drops tokens common in a sample of normal
// traffic.
package signature

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"leaksig/internal/httpmodel"
)

// Signature is one published signature of any kind.
type Signature struct {
	ID int `json:"id"`
	// Kind selects the matching discipline (KindConjunction,
	// KindSubsequence). Empty means conjunction — the legacy wire
	// spelling, so sets published before kinds existed parse unchanged.
	Kind        string   `json:"kind,omitempty"`
	Tokens      []string `json:"tokens"`                // conjunction: all must occur; subsequence: in this order
	HostSuffix  string   `json:"host_suffix,omitempty"` // optional destination constraint (label-aligned)
	ClusterSize int      `json:"cluster_size"`          // provenance: member count of the source cluster
	// Views lists the decode views (KnownViews) the matcher scans in
	// addition to the raw content. Opt-in per signature: decoding costs,
	// so only signatures hunting encoded payloads pay it.
	Views []string `json:"views,omitempty"`
}

// Key returns a canonical identity for deduplication. Conjunction keys
// sort the token multiset; subsequence keys preserve order (order is the
// signature). A kind-absent signature keys identically to an explicit
// conjunction, and the legacy key format is preserved verbatim for
// view-less conjunctions so pre-kind set fingerprints never shift.
func (s *Signature) Key() string {
	toks := s.Tokens
	if s.EffectiveKind() == KindConjunction {
		sorted := append([]string(nil), s.Tokens...)
		sort.Strings(sorted)
		toks = sorted
	}
	key := s.HostSuffix + "\x00" + strings.Join(toks, "\x00")
	if k := s.EffectiveKind(); k != KindConjunction {
		key = "\x02" + k + "\x01" + key
	}
	if len(s.Views) > 0 {
		key += "\x03" + viewsKey(s.Views)
	}
	return key
}

// String renders a compact human-readable form.
func (s *Signature) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sig#%d", s.ID)
	if s.Kind != "" && s.Kind != KindConjunction {
		fmt.Fprintf(&b, " kind=%s", s.Kind)
	}
	if s.HostSuffix != "" {
		fmt.Fprintf(&b, " host~%s", s.HostSuffix)
	}
	if len(s.Views) > 0 {
		fmt.Fprintf(&b, " views=%s", viewsKey(s.Views))
	}
	for _, t := range s.Tokens {
		fmt.Fprintf(&b, " %q", t)
	}
	return b.String()
}

// Set is an ordered collection of signatures plus generation metadata.
type Set struct {
	Signatures []*Signature `json:"signatures"`
	// TrainingSize is the number of packets the signatures were generated
	// from (the paper's N).
	TrainingSize int `json:"training_size"`
	// Version increases monotonically when a distribution server reissues
	// the set (Figure 3a).
	Version int64 `json:"version"`
	// Traces carries the sampled trace IDs of packets whose misses
	// contributed to this generation (bounded; provenance only — excluded
	// from fingerprinting, so identical signatures under different traces
	// never republish).
	Traces []string `json:"traces,omitempty"`
}

// Len returns the number of signatures.
func (s *Set) Len() int { return len(s.Signatures) }

// FirstTrace returns the set's lead provenance trace ID ("" when it
// carries none) — the ID reload and publish events attribute to.
func (s *Set) FirstTrace() string {
	if len(s.Traces) > 0 {
		return s.Traces[0]
	}
	return ""
}

// The fixed generation rule: token bounds every generator shares, and
// the Bayes signature's training constants. The paper states none of
// these values.
const (
	// minTokenLen is the shortest token kept: shorter tokens are
	// dominated by boilerplate.
	minTokenLen = 6
	// maxClusterTokens bounds the tokens extracted per cluster.
	maxClusterTokens = 12
	// bayesSmoothing is the Laplace pseudo-count for the Bayes
	// signature's occurrence probabilities.
	bayesSmoothing = 1
	// bayesTrainFP bounds the fraction of the benign sample a Bayes
	// signature's calibrated threshold may match.
	bayesTrainFP = 0.005
)

// stoplist holds HTTP boilerplate that must never count toward a token's
// informative content: fragments present in nearly every request. It is
// sorted longest first, once, so that informativeLen deletes a longer
// entry before any entry it contains can shadow it.
var stoplist = func() []string {
	s := []string{
		"GET /", "POST /",
		" HTTP/1.1", " HTTP/1.0", "HTTP/1.",
		"http://", "https://",
		"Content-Type", "application/x-www-form-urlencoded",
		"User-Agent", "Mozilla/", "Dalvik/",
		"&", "=", "?", "; ",
	}
	sort.Slice(s, func(i, j int) bool { return len(s[i]) > len(s[j]) })
	return s
}()

// Options configures Generate. The zero value selects the defaults noted on
// each field.
type Options struct {
	// MinClusterSize skips clusters with fewer members (default 1 — the
	// paper generates a signature for every cluster).
	MinClusterSize int

	// BenignSample, when non-empty, enables the frequency filter: a token
	// occurring in more than MaxBenignFraction of the sample is dropped.
	BenignSample []*httpmodel.Packet

	// MaxBenignFraction defaults to 0.05 when BenignSample is set.
	MaxBenignFraction float64
}

func (o Options) withDefaults() Options {
	if o.MinClusterSize == 0 {
		o.MinClusterSize = 1
	}
	if o.MaxBenignFraction == 0 {
		o.MaxBenignFraction = 0.05
	}
	return o
}

// Generate produces the conjunction signature set for the given clusters of
// packets. Clusters yielding no tokens after filtering produce no
// signature; duplicate signatures are emitted once (largest cluster wins).
func Generate(clusters [][]*httpmodel.Packet, opts Options) *Set {
	return generateSet(KindConjunction, clusters, opts)
}

// GenerateSubsequence produces one ordered-token signature (Polygraph's
// [14] second class, named in §VI as future work) per cluster, using the
// same extraction and stoplist as Generate: ExtractTokens already emits
// tokens in left-to-right content order, which is exactly the subsequence
// the cluster members share. Deduplication is Generate's.
func GenerateSubsequence(clusters [][]*httpmodel.Packet, opts Options) *Set {
	return generateSet(KindSubsequence, clusters, opts)
}

// generateSet builds the kind's signatures with GenerateFromTokens,
// drops duplicate keys (keeping the largest ClusterSize) and numbers
// the survivors.
func generateSet(kind string, clusters [][]*httpmodel.Packet, opts Options) *Set {
	set := &Set{}
	seen := make(map[string]*Signature)
	for _, sig := range GenerateFromTokens(kind, clusters, extractEach(clusters), opts) {
		if sig == nil {
			continue
		}
		key := sig.Key()
		if prev, ok := seen[key]; ok {
			if sig.ClusterSize > prev.ClusterSize {
				prev.ClusterSize = sig.ClusterSize
			}
			continue
		}
		sig.ID = len(set.Signatures)
		seen[key] = sig
		set.Signatures = append(set.Signatures, sig)
	}
	for _, cl := range clusters {
		set.TrainingSize += len(cl)
	}
	return set
}

// GenerateFromTokens builds one signature of the given kind,
// KindConjunction or KindSubsequence, per cluster, from tokens the
// caller supplies: tokens(i) must return ExtractTokens of clusters[i]'s
// contents, in a slice the filters may overwrite. With GenerateBayesFromTokens, it lets a
// caller extract each cluster once for every generator.
//
// A KindConjunction signature keeps each informative token once and
// drops those the benign-frequency filter finds common; it carries the
// empty (conjunction) Kind. A KindSubsequence signature keeps every
// informative token in order. Entry i of the result is nil when
// clusters[i] is below MinClusterSize, in which case tokens is not
// called for it, or keeps no token. Signatures are not deduplicated and
// carry ID 0.
func GenerateFromTokens(kind string, clusters [][]*httpmodel.Packet,
	tokens func(cluster int) []string, opts Options) []*Signature {

	o := opts.withDefaults()
	var benign [][]byte
	if kind == KindConjunction && len(o.BenignSample) > 0 {
		benign = contents(o.BenignSample)
	}
	sigs := make([]*Signature, len(clusters))
	for i, cl := range clusters {
		if len(cl) < o.MinClusterSize {
			continue
		}
		kept := tokens(i)
		if kind == KindSubsequence {
			kept = informativeTokens(kept)
		} else {
			kept = filterTokens(kept, benign, o.MaxBenignFraction)
		}
		if len(kept) == 0 {
			continue
		}
		sig := &Signature{Tokens: kept, ClusterSize: len(cl)}
		if kind == KindSubsequence {
			sig.Kind = KindSubsequence
		}
		sigs[i] = sig
	}
	return sigs
}

// extractEach is the token source of Generate, GenerateSubsequence and
// GenerateBayes: a fresh extraction of the asked cluster.
func extractEach(clusters [][]*httpmodel.Packet) func(cluster int) []string {
	return func(i int) []string { return ExtractTokens(contents(clusters[i])) }
}

// contents returns the packets' Content.
func contents(ps []*httpmodel.Packet) [][]byte {
	out := make([][]byte, len(ps))
	for i, p := range ps {
		out[i] = p.Content()
	}
	return out
}

// ExtractTokens returns the ordered invariant tokens of the contents: the
// longest substring common to every member, recursively applied to the
// parts left and right of it (in-order), keeping tokens of at least
// minTokenLen bytes and at most maxClusterTokens tokens.
func ExtractTokens(contents [][]byte) []string {
	return extractTokens(contents, minTokenLen, maxClusterTokens)
}

// extractTokens is ExtractTokens at the given bounds; tests use it to
// reach bounds the fixed rule never takes.
func extractTokens(contents [][]byte, minLen, maxTokens int) []string {
	if len(contents) == 0 || maxTokens <= 0 {
		return nil
	}
	var raw []string
	extractRec(contents, minLen, maxTokens, &raw)
	// Field hygiene: Content() joins the request line, cookie and body
	// with '\n', so a longest-common-substring can straddle a field
	// separator — but the matcher scans fields in isolation and such a
	// token could never fire. Split on '\n' and keep each part that still
	// clears minLen, preserving in-order positions. Splitting can emit
	// more parts than it consumed, so it cannot filter raw in place.
	needSplit := false
	for _, tok := range raw {
		if strings.Contains(tok, "\n") {
			needSplit = true
			break
		}
	}
	if !needSplit {
		return raw
	}
	out := make([]string, 0, len(raw))
	for _, tok := range raw {
		if !strings.Contains(tok, "\n") {
			out = append(out, tok)
			continue
		}
		for _, part := range strings.Split(tok, "\n") {
			if len(part) >= minLen {
				out = append(out, part)
			}
		}
	}
	if len(out) > maxTokens {
		out = out[:maxTokens]
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func extractRec(contents [][]byte, minLen, maxTokens int, out *[]string) {
	if len(*out) >= maxTokens {
		return
	}
	for _, c := range contents {
		if len(c) < minLen {
			return
		}
	}
	tok := longestCommonSubstring(contents)
	if len(tok) < minLen {
		return
	}
	lefts := make([][]byte, len(contents))
	rights := make([][]byte, len(contents))
	for i, c := range contents {
		pos := bytes.Index(c, tok)
		lefts[i] = c[:pos]
		rights[i] = c[pos+len(tok):]
	}
	extractRec(lefts, minLen, maxTokens, out)
	if len(*out) < maxTokens {
		*out = append(*out, string(tok))
	}
	extractRec(rights, minLen, maxTokens, out)
}

// filterTokens applies the stoplist and, when benign holds the benign
// sample's contents, the benign-frequency filter, keeping each token
// once. It filters tokens in place.
func filterTokens(tokens []string, benign [][]byte, maxBenignFraction float64) []string {
	out := tokens[:0]
	seen := make(map[string]bool)
	for _, t := range tokens {
		if seen[t] {
			continue
		}
		seen[t] = true
		if informativeLen(t) < minTokenLen {
			continue
		}
		if benign != nil && benignFraction(t, benign) > maxBenignFraction {
			continue
		}
		out = append(out, t)
	}
	return out
}

// informativeTokens applies the stoplist alone, keeping order and
// repeats. It filters tokens in place.
func informativeTokens(tokens []string) []string {
	out := tokens[:0]
	for _, t := range tokens {
		if informativeLen(t) >= minTokenLen {
			out = append(out, t)
		}
	}
	return out
}

// informativeLen returns the number of bytes of t remaining after deleting
// every occurrence of every stoplist entry (longest-match-first, repeated to
// a fixed point). A token made of pure boilerplate scores near zero.
func informativeLen(t string) int {
	cur := t
	for {
		next := cur
		for _, s := range stoplist {
			next = strings.ReplaceAll(next, s, "")
		}
		if next == cur {
			break
		}
		cur = next
	}
	// Whitespace and separators carry no information either.
	cur = strings.Map(func(r rune) rune {
		switch r {
		case ' ', '\t', '\r', '\n', '/', '.', ':', ';', ',':
			return -1
		}
		return r
	}, cur)
	return len(cur)
}

func benignFraction(token string, benign [][]byte) float64 {
	if len(benign) == 0 {
		return 0
	}
	hits, tok := 0, []byte(token)
	for _, b := range benign {
		if bytes.Contains(b, tok) {
			hits++
		}
	}
	return float64(hits) / float64(len(benign))
}

// HostMatchesSuffix reports whether host ends with the label-aligned
// suffix: either equal to it or ending in "."+suffix. An empty suffix
// matches everything.
func HostMatchesSuffix(host, suffix string) bool {
	if suffix == "" {
		return true
	}
	if host == suffix {
		return true
	}
	return strings.HasSuffix(host, "."+suffix)
}

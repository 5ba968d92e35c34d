package signature

// Probabilistic signatures — the upgrade path the paper names in §VI:
// "Probabilistic signatures [14], [30], [31] might improve detection of
// information leakage on Android applications, and we hope to include them
// in our scheme in future work." This file implements the Bayes signature
// of Polygraph [14]: every token carries a log-likelihood-ratio score and a
// packet matches when the summed score of its present tokens exceeds a
// threshold calibrated against benign traffic.

import (
	"math"
	"sort"

	"leaksig/internal/ahocorasick"
	"leaksig/internal/httpmodel"
)

// BayesOptions configures GenerateBayes. It has no fields: the token
// rule, the smoothing and the training false-positive bound are fixed.
type BayesOptions struct{}

// BayesSignature is one trained probabilistic signature: a token vocabulary
// with per-token scores and a decision threshold.
type BayesSignature struct {
	Tokens    []string  `json:"tokens"`
	Scores    []float64 `json:"scores"`
	Threshold float64   `json:"threshold"`
	// TrainingSize is the number of suspicious packets trained on.
	TrainingSize int `json:"training_size"`

	matcher *ahocorasick.Matcher
}

// GenerateBayes trains a Bayes signature. Token candidates come from the
// same per-cluster longest-common-substring extraction the conjunction
// generator uses; scores are smoothed log likelihood ratios of token
// occurrence in the suspicious sample versus the benign sample; the
// threshold is the smallest value whose benign false-match rate does not
// exceed bayesTrainFP.
func GenerateBayes(clusters [][]*httpmodel.Packet, benign []*httpmodel.Packet, opts BayesOptions) *BayesSignature {
	return GenerateBayesFromTokens(clusters, extractEach(clusters), benign)
}

// GenerateBayesFromTokens is GenerateBayes over tokens the caller
// supplies: tokens(i) must return ExtractTokens of clusters[i]'s
// contents. It only reads the slices.
func GenerateBayesFromTokens(clusters [][]*httpmodel.Packet,
	tokens func(cluster int) []string, benign []*httpmodel.Packet) *BayesSignature {
	return generateBayes(clusters, tokens, benign, bayesTrainFP)
}

// generateBayes is GenerateBayesFromTokens with the training
// false-positive bound as a parameter, for tests.
func generateBayes(clusters [][]*httpmodel.Packet, tokens func(cluster int) []string,
	benign []*httpmodel.Packet, trainFP float64) *BayesSignature {

	// Candidate vocabulary: union of every cluster's invariant tokens.
	seen := make(map[string]bool)
	var vocab []string
	var suspicious []*httpmodel.Packet
	for i, cl := range clusters {
		suspicious = append(suspicious, cl...)
		for _, tok := range tokens(i) {
			if seen[tok] || informativeLen(tok) < minTokenLen {
				continue
			}
			seen[tok] = true
			vocab = append(vocab, tok)
		}
	}
	sort.Strings(vocab)
	sig := &BayesSignature{Tokens: vocab, TrainingSize: len(suspicious)}
	if len(vocab) == 0 {
		sig.Threshold = math.Inf(1)
		sig.compile()
		return sig
	}
	sig.compile()

	// Occurrence counts in both corpora.
	suspCount := make([]float64, len(vocab))
	benignCount := make([]float64, len(vocab))
	occ := make([]uint64, sig.matcher.BitsetWords()) // reused by every scan below
	countInto := func(ps []*httpmodel.Packet, counts []float64) {
		for _, p := range ps {
			sig.matcher.OccursSegments(occ, p.Content())
			for i := range counts {
				if occ[i>>6]&(1<<(i&63)) != 0 {
					counts[i]++
				}
			}
		}
	}
	countInto(suspicious, suspCount)
	countInto(benign, benignCount)

	nS := float64(len(suspicious)) + 2*bayesSmoothing
	nB := float64(len(benign)) + 2*bayesSmoothing
	sig.Scores = make([]float64, len(vocab))
	for i := range vocab {
		pS := (suspCount[i] + bayesSmoothing) / nS
		pB := (benignCount[i] + bayesSmoothing) / nB
		sig.Scores[i] = math.Log(pS / pB)
	}

	// Calibrate the threshold on the benign sample: the (1 - trainFP)
	// quantile of benign scores, floored at a tiny positive value so empty
	// content never matches.
	if len(benign) == 0 {
		sig.Threshold = sig.maxScore() / 2
		return sig
	}
	scores := make([]float64, len(benign))
	for i, p := range benign {
		scores[i] = sig.score(p.Content(), occ)
	}
	sort.Float64s(scores)
	idx := int(float64(len(scores)) * (1 - trainFP))
	if idx >= len(scores) {
		idx = len(scores) - 1
	}
	thr := scores[idx]
	if thr < 1e-9 {
		thr = 1e-9
	}
	sig.Threshold = math.Nextafter(thr, math.Inf(1))
	return sig
}

// maxScore returns the sum of positive token scores — the largest value any
// packet can reach.
func (b *BayesSignature) maxScore() float64 {
	s := 0.0
	for _, v := range b.Scores {
		if v > 0 {
			s += v
		}
	}
	return s
}

func (b *BayesSignature) compile() {
	patterns := make([][]byte, len(b.Tokens))
	for i, t := range b.Tokens {
		patterns[i] = []byte(t)
	}
	b.matcher = ahocorasick.Compile(patterns)
}

// ScoreContent returns the summed score of tokens present in content.
func (b *BayesSignature) ScoreContent(content []byte) float64 {
	if b.matcher == nil {
		b.compile()
	}
	return b.score(content, make([]uint64, b.matcher.BitsetWords()))
}

// score is ScoreContent over a caller-owned occurrence bitset of
// matcher.BitsetWords() length, which it overwrites.
func (b *BayesSignature) score(content []byte, occ []uint64) float64 {
	b.matcher.OccursSegments(occ, content)
	s := 0.0
	for i, sc := range b.Scores {
		if occ[i>>6]&(1<<(i&63)) != 0 {
			s += sc
		}
	}
	return s
}

// Matches reports whether the packet's score exceeds the threshold.
func (b *BayesSignature) Matches(p *httpmodel.Packet) bool {
	return b.ScoreContent(p.Content()) > b.Threshold
}

// NumTokens returns the vocabulary size.
func (b *BayesSignature) NumTokens() int { return len(b.Tokens) }

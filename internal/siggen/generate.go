package siggen

import (
	"slices"
	"sort"
	"strings"

	"leaksig/internal/detect"
	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
)

// distillStats reports what one generation pass kept and why it dropped
// the rest.
type distillStats struct {
	Groups        int // clusters large enough to generate from
	Candidates    int // signatures emitted by the conjunction generator
	RejectedBayes int // dropped by the Bayes log-likelihood gate (both kinds)
	RejectedFP    int // dropped by a held-out false-positive gate (both kinds)
	Accepted      int // candidates surviving every gate (both kinds)

	// Subsequence fallback: groups whose conjunction candidates all
	// failed the gates (or yielded none) retry as ordered-token
	// signatures, which are strictly harder to fire by accident.
	SubseqCandidates int // fallback signatures generated and gated
	SubseqAccepted   int // fallback signatures surviving every gate
}

// candidate is one gate-surviving signature with its provenance: the
// clusters it was distilled from (ID → member count at distillation)
// and the tenant mix of their members. Provenance is what the Service's
// published catalog keys retirement, per-tenant set assembly, and the
// training-size stat off.
type candidate struct {
	sig     *signature.Signature
	sources map[uint64]int // source cluster ID → member count
	tenants map[string]int // member count per tenant across those clusters
	traces  []string       // sampled trace IDs of contributing packets (bounded)
}

// maxProvenanceTraces bounds how many sampled trace IDs ride along as
// provenance per candidate and per published set — enough to find the
// originating misses, small enough to never bloat a publish body.
const maxProvenanceTraces = 8

// mergeTraces appends the new IDs up to the provenance cap, skipping
// duplicates.
func mergeTraces(dst, add []string) []string {
	for _, id := range add {
		if len(dst) >= maxProvenanceTraces {
			break
		}
		dup := false
		for _, have := range dst {
			if have == id {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, id)
		}
	}
	return dst
}

// groupTraces harvests the sampled members' trace IDs of one group —
// provenance tying a published signature back to the misses that taught
// it.
func groupTraces(g *group) []string {
	var gtraces []string
	for _, p := range g.Packets {
		if p.Trace != "" {
			gtraces = mergeTraces(gtraces, []string{p.Trace})
			if len(gtraces) >= maxProvenanceTraces {
				break
			}
		}
	}
	return gtraces
}

// foldCandidate merges one freshly generated signature into cands,
// deduplicating on the kind-aware key: two clusters distilling identical
// signatures collapse into one candidate whose provenance names both.
func foldCandidate(cands []candidate, byKey map[string]int, sig *signature.Signature,
	g *group, gtraces []string) []candidate {

	key := sig.Key()
	if i, ok := byKey[key]; ok {
		c := &cands[i]
		c.sources[g.ID] = len(g.Packets)
		for tenant, n := range g.Tenants {
			c.tenants[tenant] += n
		}
		c.traces = mergeTraces(c.traces, gtraces)
		if sig.ClusterSize > c.sig.ClusterSize {
			c.sig.ClusterSize = sig.ClusterSize
		}
		return cands
	}
	byKey[key] = len(cands)
	tenants := make(map[string]int, len(g.Tenants))
	for tenant, n := range g.Tenants {
		tenants[tenant] = n
	}
	return append(cands, candidate{
		sig:     sig,
		sources: map[uint64]int{g.ID: len(g.Packets)},
		tenants: tenants,
		traces:  mergeTraces(nil, gtraces),
	})
}

// applyGates runs the Bayes and held-out false-positive gates over the
// candidates, any kind. The FP gate compiles the candidates into a probe
// engine — the same kinded compiler production matching uses — and
// scores the shared held-out corpus plus, for each candidate, every
// contributing tenant's private corpus (tenants without one are covered
// by the shared gate alone). An empty corpus passes everything.
func applyGates(cands []candidate, bayes *signature.BayesSignature,
	benignHold []*httpmodel.Packet, tenantHold map[string][]*httpmodel.Packet,
	maxHoldFP float64, st *distillStats) []candidate {

	if len(cands) == 0 {
		return cands
	}
	if bayes != nil {
		kept := cands[:0]
		for _, c := range cands {
			// A packet matching the signature contains every token, so
			// the score of the joined tokens lower-bounds any matching
			// packet's Bayes score; below threshold means the signature
			// can only fire on Bayes-benign content.
			content := []byte(strings.Join(c.sig.Tokens, "\n"))
			if bayes.ScoreContent(content) <= bayes.Threshold {
				st.RejectedBayes++
				continue
			}
			kept = append(kept, c)
		}
		cands = kept
	}

	if len(cands) == 0 {
		return cands
	}
	corpora := 0
	if len(benignHold) > 0 {
		corpora++
	}
	corpora += len(tenantHold)
	if corpora == 0 {
		return cands
	}
	probe := &signature.Set{Signatures: make([]*signature.Signature, len(cands))}
	for i, c := range cands {
		cp := *c.sig
		cp.ID = i
		probe.Signatures[i] = &cp
	}
	eng := detect.NewEngine(probe)
	countHits := func(corpus []*httpmodel.Packet) map[int]int {
		hits := make(map[int]int, len(cands))
		for _, p := range corpus {
			for _, id := range eng.MatchPacket(p) {
				hits[id]++
			}
		}
		return hits
	}
	sharedHits := countHits(benignHold)
	tenantHits := make(map[string]map[int]int, len(tenantHold))
	for tenant, corpus := range tenantHold {
		if len(corpus) > 0 {
			tenantHits[tenant] = countHits(corpus)
		}
	}
	limit := maxHoldFP * float64(len(benignHold))
	kept := cands[:0]
	for i, c := range cands {
		if len(benignHold) > 0 && float64(sharedHits[i]) > limit {
			st.RejectedFP++
			continue
		}
		rejected := false
		for tenant := range c.tenants {
			hits, ok := tenantHits[tenant]
			if !ok {
				continue
			}
			if float64(hits[i]) > maxHoldFP*float64(len(tenantHold[tenant])) {
				st.RejectedFP++
				rejected = true
				break
			}
		}
		if !rejected {
			kept = append(kept, c)
		}
	}
	return kept
}

// distill turns tagged cluster groups into publishable candidates.
// Conjunction signatures distill first, through three filters mirroring
// the paper's §VI concerns about careless signatures:
//
//  1. signature.Generate's own stoplist + benign-frequency token filters
//     (benignTrain feeds the frequency filter);
//  2. a Bayes gate: a model trained on the groups versus benignTrain
//     scores each candidate's token set, and candidates whose summed
//     log-likelihood ratio does not clear the calibrated threshold —
//     token material as common in benign traffic as in suspect traffic —
//     are dropped;
//  3. held-out false-positive gates: candidates matching more than
//     maxHoldFP of benignHold (packets never seen during training) — or
//     of any contributing tenant's private corpus in tenantHold — are
//     dropped.
//
// Groups whose conjunction candidates all fail the gates (or never
// produce one — every token benign-frequent, say) fall back to
// subsequence candidates: the same extracted tokens, but matched in
// order. Order is strictly harder to satisfy by accident, so an ordered
// signature can clear the very FP gate its unordered form failed; the
// fallback runs through the same Bayes/FP gates and publishes with the
// same provenance machinery, just with Kind set on the wire.
//
// Gates 2 and 3 need benign corpora to calibrate against and pass
// everything when theirs is empty.
//
// Every generator takes its tokens from memo, so a group's member window
// is extracted once, not once per generator, and not again in a later
// epoch that finds the window unchanged.
func distill(memo *tokenMemo, groups []group, benignTrain, benignHold []*httpmodel.Packet,
	tenantHold map[string][]*httpmodel.Packet,
	opts signature.Options, maxHoldFP float64) ([]candidate, distillStats) {

	memo.begin()
	defer memo.end()
	st := distillStats{Groups: len(groups)}
	packetGroups := make([][]*httpmodel.Packet, len(groups))
	for i, g := range groups {
		packetGroups[i] = g.Packets
	}
	tokens := func(i int) []string { return memo.tokens(&groups[i]) }

	var cands []candidate
	byKey := make(map[string]int) // signature key → index in cands
	gopts := opts
	gopts.BenignSample = benignTrain
	for gi, sig := range signature.GenerateFromTokens(signature.KindConjunction, packetGroups, tokens, gopts) {
		if sig != nil {
			cands = foldCandidate(cands, byKey, sig, &groups[gi], groupTraces(&groups[gi]))
		}
	}
	st.Candidates = len(cands)

	var bayes *signature.BayesSignature
	if len(benignTrain) > 0 && len(groups) > 0 {
		bayes = signature.GenerateBayesFromTokens(packetGroups, tokens, benignTrain)
	}
	cands = applyGates(cands, bayes, benignHold, tenantHold, maxHoldFP, &st)

	// Subsequence fallback for the groups no surviving candidate covers.
	surviving := make(map[uint64]bool)
	for i := range cands {
		for src := range cands[i].sources {
			surviving[src] = true
		}
	}
	var uncovered []*group
	var uncoveredPackets [][]*httpmodel.Packet
	for gi := range groups {
		if g := &groups[gi]; !surviving[g.ID] {
			uncovered = append(uncovered, g)
			uncoveredPackets = append(uncoveredPackets, g.Packets)
		}
	}
	uncoveredTokens := func(i int) []string { return memo.tokens(uncovered[i]) }
	var fallback []candidate
	fbKey := make(map[string]int)
	for i, sig := range signature.GenerateFromTokens(signature.KindSubsequence, uncoveredPackets, uncoveredTokens, opts) {
		if sig != nil {
			fallback = foldCandidate(fallback, fbKey, sig, uncovered[i], groupTraces(uncovered[i]))
		}
	}
	st.SubseqCandidates = len(fallback)
	fallback = applyGates(fallback, bayes, benignHold, tenantHold, maxHoldFP, &st)
	st.SubseqAccepted = len(fallback)
	cands = append(cands, fallback...)

	st.Accepted = len(cands)
	return cands, st
}

// tokenMemo keeps each group's extracted tokens from one distill to the
// next. An extraction is keyed by the group's ID, and it is reused only
// while the group's member window is the one it was extracted from: the
// same packets, pointer for pointer, in the same order. Packets are
// immutable once observed, so an unchanged window yields the same
// tokens. Each distill keeps only the extractions it asked for, so the
// memo holds at most one entry per live group. It is not checkpointed.
// The owner goroutine owns it.
type tokenMemo struct {
	last, cur map[uint64]extraction // by group ID
	extracted int                   // windows extracted rather than reused, ever
}

// extraction is one window's tokens.
type extraction struct {
	window []*httpmodel.Packet
	tokens []string
}

// begin starts a distill: the last distill's extractions stay reusable
// until end.
func (m *tokenMemo) begin() {
	m.last, m.cur = m.cur, make(map[uint64]extraction)
}

// end drops the extractions this distill did not reuse.
func (m *tokenMemo) end() { m.last = nil }

// tokens returns a copy of g's tokens, extracted now unless this
// distill or the last one extracted the same window.
func (m *tokenMemo) tokens(g *group) []string {
	e, ok := m.cur[g.ID]
	if !ok {
		e, ok = m.last[g.ID]
		if !ok || !slices.Equal(e.window, g.Packets) {
			contents := make([][]byte, len(g.Packets))
			for i, p := range g.Packets {
				contents[i] = p.Content()
			}
			e = extraction{g.Packets, signature.ExtractTokens(contents)}
			m.extracted++
		}
		m.cur[g.ID] = e
	}
	return slices.Clone(e.tokens)
}

// assemble builds a publishable set from signatures, in canonical
// (sorted key) order with fresh IDs. trainingSize is the packet count
// across the UNIQUE source clusters behind the signatures — callers
// compute it from provenance, because summing per-signature ClusterSize
// would double-count clusters that distilled several signatures. The
// signatures are copied, never shared: the same catalog entry may
// appear in the global set and several tenant sets, each with its own
// ID.
func assemble(sigs []*signature.Signature, trainingSize int) *signature.Set {
	sorted := make([]*signature.Signature, len(sigs))
	copy(sorted, sigs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key() < sorted[j].Key() })
	set := &signature.Set{Signatures: make([]*signature.Signature, len(sorted)), TrainingSize: trainingSize}
	for i, sig := range sorted {
		cp := *sig
		cp.ID = i
		set.Signatures[i] = &cp
	}
	return set
}

// setFingerprint canonically identifies a signature set's content (not
// its version): the sorted signature keys joined. The service publishes
// only when the fingerprint changes, so a stable traffic mix does not
// spam watchers with identical rollovers.
func setFingerprint(set *signature.Set) string {
	keys := make([]string, set.Len())
	for i, sig := range set.Signatures {
		keys[i] = sig.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x01")
}

// splitBenign deals the benign corpus into training (even indices — the
// token-frequency filter and Bayes model) and held-out (odd indices —
// the false-positive gate) halves, so the FP gate always scores against
// packets generation never saw.
func splitBenign(benign []*httpmodel.Packet) (train, hold []*httpmodel.Packet) {
	for i, p := range benign {
		if i%2 == 0 {
			train = append(train, p)
		} else {
			hold = append(hold, p)
		}
	}
	return train, hold
}

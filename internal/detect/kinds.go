package detect

// Per-kind match programs beyond the fast conjunction path. The compiler
// partitions the set three ways:
//
//   - view-less conjunctions stay on the postings path, untouched;
//   - conjunctions with decode views become kinded programs: a token
//     counts as present when its bit is set in the raw occurrence bitset
//     or in any opted view's bitset;
//   - subsequence signatures become kinded programs with two stages: a
//     bitset prefilter (every token present somewhere in one stream —
//     raw or one opted view) followed by an ordered verify over that
//     stream's materialized content: the greedy walk reference.Match
//     states.
//
// Kinded programs are resolved through their own token index, of the
// same form as the fast path's postings (tokenIndex): per packet, only
// the programs whose tokens all occurred in some stream run their exact
// predicate, so the cost scales with the tokens that occur rather than
// the number of programs. The index stays apart from the postings, as the
// raw and view bitsets stay apart: a plain conjunction counts only raw
// occurrences, never a token that only a view produced. All kinds share
// one automaton pass per stream; the index runs only when the compiled
// set contains kinded programs, so a legacy conjunction-only set pays
// nothing.

import (
	"bytes"
	"math/bits"

	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
)

// kindProgram is one kinded signature: a conjunction with decode views,
// or a subsequence signature, which also keeps its token bytes in
// signature order for the verify walk.
type kindProgram struct {
	si     int32
	tokens []int32  // distinct token IDs
	toks   [][]byte // subsequence only: tokens in signature order (verify)
	views  httpmodel.ViewMask
}

// bitSet reports whether token tok's bit is set in occ.
func bitSet(occ []uint64, tok int32) bool {
	return occ[tok>>6]&(1<<(tok&63)) != 0
}

// allBits reports whether every token's bit is set in occ.
func allBits(occ []uint64, tokens []int32) bool {
	for _, t := range tokens {
		if !bitSet(occ, t) {
			return false
		}
	}
	return true
}

// matchExtInto resolves the kinded programs into sc.cand through their
// token index. It walks the bits of the raw occurrence bitset ORed with
// every compiled view's bitset — restricted to tokens some kinded
// program needs — and counts each program's distinct tokens down on the
// gen/rem stamps. A program whose every token occurred in some stream,
// and whose host bucket is live, runs its exact predicate; that
// condition is necessary for the predicate, so the index only skips
// programs that cannot match. Kinded signatures are absent from the
// fast postings lists (needed[si] = 0), so the two countdowns never
// share a slot and no candidate can duplicate.
func (e *Engine) matchExtInto(sc *Scratch) {
	for w, mask := range e.kindBits {
		if mask == 0 {
			continue
		}
		word := sc.occ[w]
		for _, ov := range sc.occView {
			if ov != nil {
				word |= ov[w]
			}
		}
		word &= mask
		base := w << 6
		for word != 0 {
			tok := base + bits.TrailingZeros64(word)
			word &= word - 1
			for _, k := range e.kindIndex.of(tok) {
				pr := &e.kinded[k]
				si := pr.si
				if sc.bucketGen[e.sigBucket[si]] != sc.cur {
					continue
				}
				if sc.gen[si] != sc.cur {
					sc.gen[si] = sc.cur
					sc.rem[si] = int32(len(pr.tokens))
				}
				sc.rem[si]--
				if sc.rem[si] == 0 && kindMatches(pr, sc) {
					sc.cand = append(sc.cand, si)
				}
			}
		}
	}
}

// kindMatches is one kinded program's exact predicate. A conjunction
// token counts as present when its bit is set in the raw occurrence
// bitset or in any opted view's bitset. A subsequence needs every token
// in one stream — raw or a single opted view — and then the ordered
// walk over that stream.
func kindMatches(pr *kindProgram, sc *Scratch) bool {
	if pr.toks == nil {
		for _, t := range pr.tokens {
			if bitSet(sc.occ, t) {
				continue
			}
			found := false
			for v := httpmodel.View(0); v < httpmodel.NumViews; v++ {
				if pr.views.Has(v) && bitSet(sc.occView[v], t) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if allBits(sc.occ, pr.tokens) && verifyOrdered(pr, rawStream, sc) {
		return true
	}
	for v := httpmodel.View(0); v < httpmodel.NumViews; v++ {
		if pr.views.Has(v) && allBits(sc.occView[v], pr.tokens) &&
			verifyOrdered(pr, v, sc) {
			return true
		}
	}
	return false
}

// rawStream selects the undecoded content stream in verifyOrdered.
const rawStream = httpmodel.NumViews

// verifyOrdered materializes one stream of the packet — the raw content
// (the scratch's fields '\n'-joined, exactly Packet.Content) or one
// decode view's spans '\n'-joined — into scratch and runs the ordered
// token walk over it. It only runs after the prefilter saw every token in
// the stream, so it is the rare path.
func verifyOrdered(pr *kindProgram, stream httpmodel.View, sc *Scratch) bool {
	buf := sc.content[:0]
	for i, f := range sc.fields {
		if stream != rawStream {
			// Decoded spans join with the same separator as fields, so
			// a token can never straddle two spans — matching the
			// prefilter, which scanned each span in isolation.
			httpmodel.VisitDecodedView(stream, f, &sc.views, func(dec []byte) {
				buf = append(buf, dec...)
				buf = append(buf, '\n')
			})
			continue
		}
		if i > 0 {
			buf = append(buf, '\n')
		}
		buf = append(buf, f...)
	}
	sc.content = buf
	pos := 0
	for _, tok := range pr.toks {
		idx := bytes.Index(buf[pos:], tok)
		if idx < 0 {
			return false
		}
		pos += idx + len(tok)
	}
	return true
}

// compileKinds partitions the set into per-kind programs. perSig holds
// each signature's distinct token IDs, all below numTokens. Fast
// conjunctions keep their postings; kinded signatures are pulled out of
// the postings (needed[si] = 0), compiled into e.kinded, and indexed by
// token for matchExtInto.
func (e *Engine) compileKinds(set *signature.Set, perSig [][]int32, numTokens int) {
	for si, sig := range set.Signatures {
		if !signature.ValidKind(sig.Kind) {
			// Unknown kind: never matches (and never reaches postings).
			e.needed[si] = 0
			continue
		}
		vm := httpmodel.ViewMaskOf(sig.Views)
		kind := sig.EffectiveKind()
		if kind == signature.KindConjunction && vm == 0 {
			continue // fast path, already wired
		}
		e.needed[si] = 0 // keep out of the postings index
		if len(perSig[si]) == 0 {
			continue // token-less signatures never match
		}
		e.viewMask |= vm
		pr := kindProgram{si: int32(si), tokens: perSig[si], views: vm}
		if kind == signature.KindSubsequence {
			pr.toks = make([][]byte, len(sig.Tokens))
			for i, t := range sig.Tokens {
				pr.toks[i] = []byte(t)
			}
		}
		e.kinded = append(e.kinded, pr)
	}
	if len(e.kinded) == 0 {
		return
	}
	e.kindIndex = newTokenIndex(numTokens, len(e.kinded), func(k int) []int32 { return e.kinded[k].tokens })
	e.kindBits = make([]uint64, (numTokens+63)/64)
	for _, pr := range e.kinded {
		for _, t := range pr.tokens {
			e.kindBits[t>>6] |= 1 << (t & 63)
		}
	}
}

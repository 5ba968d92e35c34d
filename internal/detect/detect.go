// Package detect applies conjunction signature sets to HTTP packets and
// computes the paper's evaluation rates (§V-B).
//
// Matching runs one Aho–Corasick pass per packet over the union of
// every signature's tokens — over each of the three content fields on its
// own, with no concatenated content buffer — then resolves conjunctions
// through an inverted token→signature index with remaining-token counters
// and a host-suffix bucket prefilter, so per-packet work scales with the
// tokens that occur rather than the signature count. Evaluation implements the paper's equations verbatim:
//
//	TP = (#detected sensitive packets − N) / (#sensitive packets − N)
//	FN =  #undetected sensitive packets   / (#sensitive packets − N)
//	FP =  #detected non-sensitive packets / (#non-sensitive packets − N)
//
// where N is the number of (sensitive) packets the signatures were
// generated from. The N subtraction in the FP denominator is the paper's
// own formulation and is kept literal.
//
// This package is the offline posture: a fully materialized capture
// scored against an immutable compiled set. Its Engine is also the
// matcher core the streaming side (internal/engine) compiles each hot
// generation into.
package detect

import (
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"leaksig/internal/ahocorasick"
	"leaksig/internal/capture"
	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
)

// Engine matches packets against a compiled signature set. It is immutable
// after construction and safe for concurrent use.
//
// The compiled form is built for per-packet cost proportional to the
// tokens that actually occur, not to the signature count: one
// Aho–Corasick scan of each content field (request line, cookie, body),
// one dense-row load per byte in the shallow states and a short sparse
// row below them, fills a token bitset, then an inverted index (token ID
// → the signatures that need it) drives remaining-token countdowns so
// only signatures sharing an occurring token are ever touched. Host constraints are a
// bucket prefilter: each distinct HostSuffix is one bucket, the packet
// marks its eligible buckets with O(host labels) map probes, and a
// signature whose tokens are all present still needs its bucket marked to
// match.
type Engine struct {
	id      uint64 // unique per NewEngine: how a Scratch knows what it is sized for
	set     *signature.Set
	matcher *ahocorasick.Matcher

	// needed[si] is the number of DISTINCT tokens signature si requires
	// on the fast conjunction path; 0 means the signature is kinded or
	// can never match, and appears in no postings list.
	needed []int32
	// postings lists, per token, the fast-path signatures requiring it,
	// each exactly once.
	postings tokenIndex

	// Host-suffix buckets: sigBucket[si] is the bucket of signature si's
	// HostSuffix; buckets maps each distinct non-empty suffix to its
	// bucket; emptyBucket is the bucket shared by suffix-less signatures
	// (-1 when absent), which every packet marks eligible.
	sigBucket   []int32
	buckets     map[string]int32
	emptyBucket int32
	numBuckets  int

	// Kinded programs beyond the fast conjunction path (kinds.go).
	// viewMask is the union of every signature's decode views; when it
	// is zero the scan never touches the view machinery. kindIndex lists,
	// per token, the programs (indices into kinded) that need it, and
	// kindBits marks the tokens with a non-empty list. When kinded is
	// empty matchExtInto is never called, so a conjunction-only set
	// compiles to just the postings engine.
	viewMask  httpmodel.ViewMask
	kinded    []kindProgram
	kindIndex tokenIndex
	kindBits  []uint64

	// scratchPool feeds the compatibility entry points (MatchPacket,
	// Matches), one pool per engine so a pooled scratch never crosses
	// engines. It is held by pointer: the runtime keeps every pool it has
	// seen used listed until two collections later, and an embedded pool
	// would keep the whole engine reachable through that list.
	scratchPool *sync.Pool
}

// tokenIndex is an inverted token index in compressed sparse row form:
// list[start[tok]:start[tok+1]] holds the entries that need token tok, in
// entry order. Two allocations hold the whole index, however many tokens
// it covers.
type tokenIndex struct {
	start []int32
	list  []int32
}

// newTokenIndex indexes entries 0..n-1 over numTokens tokens, entry k
// needing each of tokens(k), which must be distinct and below numTokens.
// It counts each token's entries, turns the counts into range ends, then
// fills every range back to front, so each list is in entry order.
func newTokenIndex(numTokens, n int, tokens func(k int) []int32) tokenIndex {
	x := tokenIndex{start: make([]int32, numTokens+1)}
	for k := 0; k < n; k++ {
		for _, t := range tokens(k) {
			x.start[t]++
		}
	}
	for t := 1; t <= numTokens; t++ {
		x.start[t] += x.start[t-1]
	}
	x.list = make([]int32, x.start[numTokens])
	for k := n - 1; k >= 0; k-- {
		for _, t := range tokens(k) {
			x.start[t]--
			x.list[x.start[t]] = int32(k)
		}
	}
	return x
}

// of returns the entries that need token tok.
func (x tokenIndex) of(tok int) []int32 { return x.list[x.start[tok]:x.start[tok+1]] }

// engineIDs hands out Engine.id; 0 is the zero Scratch's "sized for none".
var engineIDs atomic.Uint64

// NewEngine compiles the signature set.
func NewEngine(set *signature.Set) *Engine {
	e := &Engine{
		id:          engineIDs.Add(1),
		set:         set,
		needed:      make([]int32, len(set.Signatures)),
		sigBucket:   make([]int32, len(set.Signatures)),
		buckets:     make(map[string]int32),
		emptyBucket: -1,
	}
	// Every signature's distinct token IDs live in one array, and every
	// distinct token's bytes in one buffer, so the allocations do not
	// grow with the token or signature count.
	total := 0
	for _, sig := range set.Signatures {
		total += len(sig.Tokens)
	}
	tokenID := make(map[string]int32)
	var distinct []string // by token ID
	textLen := 0
	ids := make([]int32, 0, total)
	perSig := make([][]int32, len(set.Signatures))
	for si, sig := range set.Signatures {
		start := len(ids)
		for _, tok := range sig.Tokens {
			id, ok := tokenID[tok]
			if !ok {
				id = int32(len(distinct))
				tokenID[tok] = id
				distinct = append(distinct, tok)
				textLen += len(tok)
			}
			if !slices.Contains(ids[start:], id) {
				ids = append(ids, id)
			}
		}
		perSig[si] = ids[start:len(ids):len(ids)]
		e.needed[si] = int32(len(perSig[si]))

		bucket := int32(-1)
		if sig.HostSuffix == "" {
			if e.emptyBucket < 0 {
				e.emptyBucket = int32(e.numBuckets)
				e.numBuckets++
			}
			bucket = e.emptyBucket
		} else if b, ok := e.buckets[sig.HostSuffix]; ok {
			bucket = b
		} else {
			bucket = int32(e.numBuckets)
			e.buckets[sig.HostSuffix] = bucket
			e.numBuckets++
		}
		e.sigBucket[si] = bucket
	}
	patterns := make([][]byte, len(distinct))
	text := make([]byte, 0, textLen)
	for id, tok := range distinct {
		text = append(text, tok...)
		patterns[id] = text[len(text)-len(tok):]
	}
	e.compileKinds(set, perSig, len(patterns))
	e.postings = newTokenIndex(len(patterns), len(perSig), func(si int) []int32 {
		if e.needed[si] == 0 {
			return nil // token-less and kinded signatures: no postings
		}
		return perSig[si]
	})
	e.matcher = ahocorasick.Compile(patterns)
	e.scratchPool = &sync.Pool{New: func() any { return &Scratch{} }}
	return e
}

// NewScratch returns a scratch pre-sized for this engine. Callers that
// match many packets (shard workers, batch loops) should hold one per
// goroutine and pass it to MatchInto; the zero Scratch value works too.
func (e *Engine) NewScratch() *Scratch {
	sc := &Scratch{}
	sc.init(e)
	return sc
}

// markBuckets flags the host buckets the packet is eligible for: the
// empty-suffix bucket plus every label-aligned suffix of the host that
// some signature constrains to. This mirrors signature.HostMatchesSuffix
// exactly — host == suffix or host ending in "."+suffix.
func (e *Engine) markBuckets(host string, sc *Scratch) {
	if e.emptyBucket >= 0 {
		sc.bucketGen[e.emptyBucket] = sc.cur
	}
	if len(e.buckets) == 0 {
		return
	}
	for i := 0; ; {
		if b, ok := e.buckets[host[i:]]; ok {
			sc.bucketGen[b] = sc.cur
		}
		j := strings.IndexByte(host[i:], '.')
		if j < 0 {
			return
		}
		i += j + 1
	}
}

// MatchInto matches one packet using caller-owned scratch state and
// returns the IDs of every matching signature, in signature-set order.
// The returned slice is backed by the scratch and valid only until its
// next use. Steady-state calls perform no allocation; a scratch sized for
// a different engine (or the zero Scratch) is re-initialized first, so
// hot reloads can never leave a worker indexing the new automaton with
// old dimensions. The scratch refers to p's body only for the duration of
// the call.
//
// Each content field is scanned on its own from the automaton's start
// state, so no token spans two fields; with views compiled in, so is
// every decoded span of every field, into that view's own bitset.
func (e *Engine) MatchInto(p *httpmodel.Packet, sc *Scratch) []int {
	if sc.engineID != e.id {
		sc.init(e)
	}
	sc.begin()
	sc.load(p)
	for _, f := range sc.fields {
		e.matcher.ScanBytes(0, f, sc.occ)
	}
	if e.viewMask != 0 {
		e.scanViews(sc)
	}
	e.markBuckets(p.Host, sc)

	// Postings-list conjunction resolution: walk only the tokens whose
	// bits are set, counting down each referencing signature's needed
	// total. A signature completes exactly once — at its last missing
	// token — so candidates cannot duplicate.
	sc.cand = sc.cand[:0]
	for w, word := range sc.occ {
		base := w << 6
		for word != 0 {
			tok := base + bits.TrailingZeros64(word)
			word &= word - 1
			for _, si := range e.postings.of(tok) {
				if sc.gen[si] != sc.cur {
					sc.gen[si] = sc.cur
					sc.rem[si] = e.needed[si]
				}
				sc.rem[si]--
				if sc.rem[si] == 0 && sc.bucketGen[e.sigBucket[si]] == sc.cur {
					sc.cand = append(sc.cand, si)
				}
			}
		}
	}
	if len(e.kinded) > 0 {
		e.matchExtInto(sc)
	}
	// Candidates surface in token-discovery order; restore signature-set
	// order (insertion sort: the list is almost always 0–2 entries).
	for i := 1; i < len(sc.cand); i++ {
		for j := i; j > 0 && sc.cand[j-1] > sc.cand[j]; j-- {
			sc.cand[j-1], sc.cand[j] = sc.cand[j], sc.cand[j-1]
		}
	}
	sc.matched = sc.matched[:0]
	for _, si := range sc.cand {
		sc.matched = append(sc.matched, e.set.Signatures[si].ID)
	}
	sc.fields[2] = nil
	return sc.matched
}

// scanViews scans every decoded span of every content field, under each
// view the set opts into, into that view's occurrence bitset.
func (e *Engine) scanViews(sc *Scratch) {
	for _, f := range sc.fields {
		for v := httpmodel.View(0); v < httpmodel.NumViews; v++ {
			if !e.viewMask.Has(v) {
				continue
			}
			occ := sc.occView[v]
			httpmodel.VisitDecodedView(v, f, &sc.views, func(dec []byte) {
				e.matcher.ScanBytes(0, dec, occ)
			})
		}
	}
}

// MatchPacket returns the IDs of every signature the packet matches. It
// draws scratch from the engine's pool, so the scan and resolution
// allocate nothing; only a non-empty result copies out (nil is returned
// for a clean packet).
func (e *Engine) MatchPacket(p *httpmodel.Packet) []int {
	sc := e.scratchPool.Get().(*Scratch)
	ids := e.MatchInto(p, sc)
	var out []int
	if len(ids) > 0 {
		out = append(out, ids...)
	}
	e.scratchPool.Put(sc)
	return out
}

// Matches reports whether any signature matches the packet. It is
// allocation-free in the steady state.
func (e *Engine) Matches(p *httpmodel.Packet) bool {
	sc := e.scratchPool.Get().(*Scratch)
	ok := len(e.MatchInto(p, sc)) > 0
	e.scratchPool.Put(sc)
	return ok
}

// MatchSet evaluates every packet of the set in parallel and returns one
// boolean per packet in order. Each worker amortizes one scratch across
// its whole range.
func (e *Engine) MatchSet(s *capture.Set) []bool {
	return matchChunked(s, func() func(*httpmodel.Packet) bool {
		sc := e.NewScratch()
		return func(p *httpmodel.Packet) bool { return len(e.MatchInto(p, sc)) > 0 }
	})
}

// Result holds the counts and rates of one detection run.
type Result struct {
	N int // signature-generation sample size

	SensitiveTotal int // packets in the suspicious group
	NormalTotal    int // packets in the normal group

	DetectedSensitive   int // sensitive packets matched by a signature
	UndetectedSensitive int // sensitive packets missed
	DetectedNormal      int // normal packets matched (false alarms)

	TruePositiveRate  float64 // paper's TP
	FalseNegativeRate float64 // paper's FN
	FalsePositiveRate float64 // paper's FP
}

// Evaluate runs the engine over the whole dataset and scores it against the
// ground-truth sensitivity labels. sensitive[i] must correspond to
// ds.Packets[i]; n is the paper's N (size of the training sample drawn from
// the suspicious group).
func Evaluate(e *Engine, ds *capture.Set, sensitive []bool, n int) Result {
	return score(e.MatchSet(ds), sensitive, n)
}

// score counts per-packet verdicts against the ground-truth labels and
// derives the paper's rates; n is the training sample size, excluded
// from the denominators. It panics unless there is one label per verdict.
func score(matched, sensitive []bool, n int) Result {
	if len(sensitive) != len(matched) {
		panic("detect: sensitivity label length mismatch")
	}
	r := Result{N: n}
	for i, m := range matched {
		if sensitive[i] {
			r.SensitiveTotal++
			if m {
				r.DetectedSensitive++
			} else {
				r.UndetectedSensitive++
			}
		} else {
			r.NormalTotal++
			if m {
				r.DetectedNormal++
			}
		}
	}
	if denom := r.SensitiveTotal - n; denom > 0 {
		r.TruePositiveRate = float64(r.DetectedSensitive-n) / float64(denom)
		r.FalseNegativeRate = float64(r.UndetectedSensitive) / float64(denom)
	}
	if denom := r.NormalTotal - n; denom > 0 {
		r.FalsePositiveRate = float64(r.DetectedNormal) / float64(denom)
	}
	return r
}

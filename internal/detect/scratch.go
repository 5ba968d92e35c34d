package detect

import (
	"leaksig/internal/ahocorasick"
	"leaksig/internal/httpmodel"
)

// Scratch holds every piece of per-packet mutable state one matching call
// needs: the automaton state, the token-occurrence bitset, the
// remaining-token counters, the host-bucket marks, and the matched-ID
// buffer. A zero Scratch is ready to use — MatchInto sizes it for its
// engine on first use and re-sizes it automatically whenever it is handed
// to a different (e.g. freshly reloaded) engine, so a stale scratch can
// never index a new automaton. After the first call with a given engine,
// matching through a Scratch performs no allocation.
//
// A Scratch remembers the engine it is sized for by that engine's id,
// and points at the engine's automaton only while MatchInto runs, so a
// scratch kept by an idle worker or a pool never keeps a replaced
// generation reachable.
//
// A Scratch is not safe for concurrent use; give each goroutine its own.
type Scratch struct {
	engineID uint64               // id of the engine the buffers are sized for; 0 for none
	matcher  *ahocorasick.Matcher // the engine's automaton, set only inside MatchInto

	state int32    // automaton state threaded across chunks of one field
	occ   []uint64 // raw-content token-occurrence bitset, matcher.BitsetWords() words

	// Decode-view state, allocated only when the engine's set opts into
	// views: occView[v] is the occurrence bitset for view v's decoded
	// spans, occCur is the bitset the scan is currently filling (the raw
	// occ between Field and the first ViewField), and views holds the
	// decoder's reusable buffers.
	occView [httpmodel.NumViews][]uint64
	occCur  []uint64
	views   httpmodel.ViewScratch

	// Subsequence-verify buffers (kinds.go): the materialized stream
	// content and the raw-field staging area for view decoding.
	content  []byte
	fieldBuf []byte

	// Per-signature countdown of tokens still missing, lazily reset via
	// the generation stamp: a signature whose gen is stale is implicitly
	// at its full count of distinct tokens. The postings path and the
	// kinded index count down disjoint signatures in the same slices.
	// cur==0 is never a valid generation.
	rem []int32
	gen []uint32

	// Host prefilter: bucketGen[b]==cur marks bucket b eligible for the
	// current packet.
	bucketGen []uint32

	cur uint32

	cand    []int32 // candidate signature indices, later sorted
	matched []int   // matched signature IDs, in set order
}

// init (re)sizes the scratch for e and invalidates all lazy state.
func (sc *Scratch) init(e *Engine) {
	sc.engineID = e.id
	sc.occ = make([]uint64, e.matcher.BitsetWords())
	sc.occCur = sc.occ
	for v := httpmodel.View(0); v < httpmodel.NumViews; v++ {
		if e.viewMask.Has(v) {
			sc.occView[v] = make([]uint64, e.matcher.BitsetWords())
		} else {
			sc.occView[v] = nil
		}
	}
	sc.rem = make([]int32, len(e.needed))
	sc.gen = make([]uint32, len(e.needed))
	sc.bucketGen = make([]uint32, e.numBuckets)
	sc.cur = 0
	if cap(sc.cand) < len(e.needed) {
		sc.cand = make([]int32, 0, len(e.needed))
	}
	if cap(sc.matched) < len(e.needed) {
		sc.matched = make([]int, 0, len(e.needed))
	}
}

// begin starts a new packet: fresh generation, cleared bitset.
func (sc *Scratch) begin() {
	sc.cur++
	if sc.cur == 0 { // generation counter wrapped: hard-reset the stamps
		for i := range sc.gen {
			sc.gen[i] = 0
		}
		for i := range sc.bucketGen {
			sc.bucketGen[i] = 0
		}
		sc.cur = 1
	}
	for i := range sc.occ {
		sc.occ[i] = 0
	}
	for v := range sc.occView { // nil for every view the engine does not decode
		for i := range sc.occView[v] {
			sc.occView[v][i] = 0
		}
	}
	sc.occCur = sc.occ
	sc.state = 0
}

// Field, Text, Bytes and ViewField implement httpmodel.ViewVisitor: the
// automaton state resets at each field (and decoded-span) boundary and
// threads across the chunks within one, so tokens may span chunks but
// never fields, and never two decoded spans.

// Field resets the automaton at a content-field boundary and retargets
// the scan at the raw occurrence bitset.
func (sc *Scratch) Field() {
	sc.state = 0
	sc.occCur = sc.occ
}

// ViewField resets the automaton at a decoded-span boundary and
// retargets the scan at the view's occurrence bitset.
func (sc *Scratch) ViewField(v httpmodel.View) {
	sc.state = 0
	sc.occCur = sc.occView[v]
}

// Text scans one string chunk of the current field.
func (sc *Scratch) Text(s string) {
	sc.state = sc.matcher.ScanString(sc.state, s, sc.occCur)
}

// Bytes scans one byte chunk of the current field.
func (sc *Scratch) Bytes(b []byte) {
	sc.state = sc.matcher.ScanBytes(sc.state, b, sc.occCur)
}

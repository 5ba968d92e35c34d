package detect

import "leaksig/internal/httpmodel"

// Scratch holds every piece of per-packet mutable state one matching call
// needs: the packet's three content fields, the token-occurrence bitsets,
// the remaining-token counters, the host-bucket marks, and the matched-ID
// buffer. A zero Scratch is ready to use — MatchInto sizes it for its
// engine on first use and re-sizes it automatically whenever it is handed
// to a different (e.g. freshly reloaded) engine, so a stale scratch can
// never index a new automaton. After the first call with a given engine,
// matching through a Scratch allocates only to grow a buffer past the
// longest request line, cookie or decoded stream it has held, so a warm
// scratch performs no allocation.
//
// A Scratch remembers the engine it is sized for by that engine's id and
// holds no pointer to it, and MatchInto drops the scratch's reference to
// the packet's body before it returns, so a scratch kept by an idle
// worker or a pool keeps neither a replaced generation nor the last
// packet reachable.
//
// A Scratch is not safe for concurrent use; give each goroutine its own.
type Scratch struct {
	engineID uint64 // id of the engine the buffers are sized for; 0 for none

	// fields holds the packet's content fields, request line, cookie and
	// body, the form Packet.ContentFields returns: the first two are
	// copied into buffers the scratch reuses, the body aliases the
	// packet's own and is set only inside MatchInto.
	fields [3][]byte

	occ []uint64 // raw-content token-occurrence bitset, matcher.BitsetWords() words

	// Decode-view state, allocated only when the engine's set opts into
	// views: occView[v] is the occurrence bitset for view v's decoded
	// spans, and views holds the decoder's reusable buffers.
	occView [httpmodel.NumViews][]uint64
	views   httpmodel.ViewScratch

	// content is the subsequence verify's buffer (kinds.go): one stream
	// of the packet, materialized.
	content []byte

	// Per-signature countdown of tokens still missing, lazily reset via
	// the generation stamp: a signature whose gen is stale is implicitly
	// at its full count of distinct tokens. The fast postings and the
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

// begin starts a new packet: fresh generation, cleared bitsets.
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
}

// load sets the scratch's content fields to p's.
func (sc *Scratch) load(p *httpmodel.Packet) {
	sc.fields[0] = p.AppendRequestLine(sc.fields[0][:0])
	sc.fields[1] = p.AppendCookie(sc.fields[1][:0])
	sc.fields[2] = p.Body
}

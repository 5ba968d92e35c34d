// Package ahocorasick implements the Aho–Corasick multi-pattern string
// matching automaton.
//
// The detection engine (§IV/Figure 3(b) of the paper) must test every HTTP
// packet against the union of all signature tokens. A single Aho–Corasick
// pass over the packet reports which tokens occur, after which conjunction
// signatures are checked with per-signature token bitsets.
//
// Compilation happens in two stages. A map-based trie (the construction
// intermediate, see builder) assigns failure links by BFS; Compile then
// flattens it into a dense delta table — one contiguous []int32 row per
// state, indexed by byte class — with every failure link resolved into the
// table at compile time. The scan loop is therefore a single bounds-checked
// array load per input byte: no map lookups, no failure chasing, no
// allocation. Byte-class compression keeps the rows small: all bytes that
// never appear in any pattern share one column, so a token set over a
// 40-byte alphabet costs 41 columns per state instead of 256.
package ahocorasick

// Matcher is a compiled Aho–Corasick automaton in dense form. It is
// immutable after Compile and safe for concurrent use. Every scan entry
// point writes into a caller-owned occurrence bitset and allocates
// nothing.
type Matcher struct {
	patterns [][]byte

	// classes maps each input byte to its column in the delta table.
	// Bytes absent from every pattern share one dead column whose
	// transitions all resolve through the root.
	classes [256]uint8
	stride  int // columns per state row

	// delta is the fully resolved transition function: numStates×stride,
	// delta[s*stride+classes[c]] is the next state — goto edges and
	// failure-link fallbacks are indistinguishable at scan time.
	delta []int32

	// Flat per-state output lists (failure-inherited outputs already
	// merged): state s emits outList[outStart[s]:outStart[s+1]].
	outStart []int32
	outList  []int32
}

// Compile builds a matcher over the given patterns. Empty patterns are
// permitted but never match. Duplicate patterns each report their own index.
func Compile(patterns [][]byte) *Matcher {
	return newBuilder(patterns).dense()
}

// BitsetWords returns the length a caller-owned occurrence bitset must
// have: one bit per pattern, packed into uint64 words.
func (m *Matcher) BitsetWords() int { return (len(m.patterns) + 63) / 64 }

// States returns the number of automaton states (exposed for sizing
// diagnostics and tests).
func (m *Matcher) States() int { return len(m.outStart) - 1 }

// emit sets the occurrence bit of every pattern ending at state s.
func (m *Matcher) emit(s int, occ []uint64) {
	for _, p := range m.outList[m.outStart[s]:m.outStart[s+1]] {
		occ[uint(p)>>6] |= 1 << (uint(p) & 63)
	}
}

// scan is the one hot-loop body behind ScanBytes and ScanString: the
// generic instantiations for []byte and string compile to identical
// code, so string fields scan without a conversion allocation.
func scan[T interface{ ~string | ~[]byte }](m *Matcher, state int32, chunk T, occ []uint64) int32 {
	s := int(state)
	stride := m.stride
	for i := 0; i < len(chunk); i++ {
		s = int(m.delta[s*stride+int(m.classes[chunk[i]])])
		if m.outStart[s] != m.outStart[s+1] {
			m.emit(s, occ)
		}
	}
	return int32(s)
}

// ScanBytes feeds one chunk of input through the automaton, OR-ing the
// bit of every pattern that ends inside the chunk into occ (which must
// have BitsetWords() length). Pass state 0 to start a new segment and the
// returned state to continue one across chunks: patterns may span chunk
// boundaries within a segment but never across a state reset. ScanBytes
// performs no allocation.
func (m *Matcher) ScanBytes(state int32, chunk []byte, occ []uint64) int32 {
	return scan(m, state, chunk, occ)
}

// ScanString is ScanBytes over a string chunk, so callers holding string
// fields need not convert (and allocate) to scan them.
func (m *Matcher) ScanString(state int32, chunk string, occ []uint64) int32 {
	return scan(m, state, chunk, occ)
}

// OccursSegments clears occ, then scans each segment with the automaton
// state reset in between, so no pattern can match across a segment
// boundary. occ must have BitsetWords() length. The scan itself is
// allocation-free.
func (m *Matcher) OccursSegments(occ []uint64, segs ...[]byte) {
	for i := range occ {
		occ[i] = 0
	}
	for _, seg := range segs {
		m.ScanBytes(0, seg, occ)
	}
}

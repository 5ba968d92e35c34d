// Package ahocorasick implements the Aho–Corasick multi-pattern string
// matching automaton.
//
// The detection engine (§IV/Figure 3(b) of the paper) must test every HTTP
// packet against the union of all signature tokens. A single Aho–Corasick
// pass over the packet reports which tokens occur, after which conjunction
// signatures are checked with per-signature token bitsets.
//
// Compile builds the automaton directly in its final dense form: one
// contiguous []int32 row per state, indexed by byte class. The trie grows
// inside that table (a zero entry means "no goto edge", since no edge leads
// back to the root), then one breadth-first pass assigns failure links and
// fills every remaining column from the state's already complete failure
// row — no per-state map, no intermediate trie, a handful of allocations
// whatever the state count. The scan loop is therefore a single
// bounds-checked array load per input byte: no map lookups, no failure
// chasing, no allocation. Byte-class compression keeps the rows small: all
// bytes that never appear in any pattern share one column, so a token set
// over a 40-byte alphabet costs 41 columns per state instead of 256.
package ahocorasick

// Matcher is a compiled Aho–Corasick automaton in dense form. It is
// immutable after Compile and safe for concurrent use. Every scan entry
// point writes into a caller-owned occurrence bitset and allocates
// nothing.
type Matcher struct {
	// numPatterns sizes the occurrence bitset. The patterns themselves
	// are not kept: the automaton alone answers every scan.
	numPatterns int

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
	m := &Matcher{numPatterns: len(patterns)}

	// Byte classes: every byte occurring in some pattern gets its own
	// column; all others share one dead column (unless the alphabet is
	// already full).
	var present [256]bool
	total := 0
	for _, p := range patterns {
		total += len(p)
		for _, c := range p {
			present[c] = true
		}
	}
	n := 0
	for c := 0; c < 256; c++ {
		if present[c] {
			m.classes[c] = uint8(n)
			n++
		}
	}
	stride := n
	if n < 256 {
		for c := 0; c < 256; c++ {
			if !present[c] {
				m.classes[c] = uint8(n)
			}
		}
		stride = n + 1
	}
	m.stride = stride

	// Grow the trie inside the delta table: a new state is the next
	// zeroed row, a goto edge is the child's number in its parent's row.
	// 1+total rows is the size when no two patterns share a prefix; the
	// reservation is cut down to the rows used when sharing left more
	// than a quarter of it idle. States are numbered in insertion order.
	delta := make([]int32, stride, (1+total)*stride)
	end := make([]int32, len(patterns)) // state each pattern ends in
	for i, p := range patterns {
		s := 0
		for _, c := range p {
			at := s*stride + int(m.classes[c])
			if delta[at] == 0 {
				delta[at] = int32(len(delta) / stride)
				delta = delta[:len(delta)+stride]
			}
			s = int(delta[at])
		}
		end[i] = int32(s)
	}
	if cap(delta)-len(delta) > len(delta)/4 {
		delta = append([]int32(nil), delta...)
	}
	m.delta = delta
	ns := len(delta) / stride

	// One BFS over the rows. When a state is visited its failure state is
	// shallower, so that row is already complete: each goto edge's child
	// takes its failure link from it, then the whole row is copied from it
	// and the goto edges (the children just queued, in column order) are
	// put back. The root's row is complete from the start — its missing
	// edges self-loop at 0 — and its children fail to it, which the
	// zeroed fail slice already says.
	fail := make([]int32, ns)
	order := make([]int32, 0, ns)
	for _, v := range delta[:stride] {
		if v != 0 {
			order = append(order, v)
		}
	}
	var cols [256]int // columns of the visited row's goto edges
	for qi := 0; qi < len(order); qi++ {
		u, f := int(order[qi]), int(fail[order[qi]])
		row, frow := delta[u*stride:(u+1)*stride], delta[f*stride:(f+1)*stride]
		nk := 0
		for c, v := range row {
			if v != 0 {
				fail[v] = frow[c]
				order = append(order, v)
				cols[nk] = c
				nk++
			}
		}
		kids := order[len(order)-nk:]
		copy(row, frow)
		for k, c := range cols[:nk] {
			row[c] = kids[k]
		}
	}

	// Own outputs as chains through two flat slices: head[s] is the first
	// pattern ending at state s, next[p] the one after p (-1 ends a
	// chain). Linking back to front keeps each chain in pattern order;
	// next reuses end, whose entry is read just before it is overwritten.
	head := make([]int32, ns)
	for s := range head {
		head[s] = -1
	}
	next := end
	for i := len(patterns) - 1; i >= 0; i-- {
		if len(patterns[i]) == 0 {
			continue // ends at the root, which emits nothing
		}
		s := end[i]
		next[i] = head[s]
		head[s] = int32(i)
	}

	// Flatten: a state emits its own chain, then everything its failure
	// state emits. Sizes first (outStart[s+1] holds state s's count until
	// the prefix sum), then the lists, both in BFS order so the failure
	// state's entry is final before it is read.
	m.outStart = make([]int32, ns+1)
	for _, s := range order {
		cnt := m.outStart[fail[s]+1]
		for p := head[s]; p >= 0; p = next[p] {
			cnt++
		}
		m.outStart[s+1] = cnt
	}
	for s := 0; s < ns; s++ {
		m.outStart[s+1] += m.outStart[s]
	}
	m.outList = make([]int32, m.outStart[ns])
	for _, s := range order {
		at := m.outStart[s]
		for p := head[s]; p >= 0; p = next[p] {
			m.outList[at] = p
			at++
		}
		f := fail[s]
		copy(m.outList[at:], m.outList[m.outStart[f]:m.outStart[f+1]])
	}
	return m
}

// BitsetWords returns the length a caller-owned occurrence bitset must
// have: one bit per pattern, packed into uint64 words.
func (m *Matcher) BitsetWords() int { return (m.numPatterns + 63) / 64 }

// States returns the number of automaton states (exposed for sizing
// diagnostics and tests).
func (m *Matcher) States() int { return len(m.outStart) - 1 }

// emit sets the occurrence bit of every pattern ending at state s.
func (m *Matcher) emit(s int, occ []uint64) {
	for _, p := range m.outList[m.outStart[s]:m.outStart[s+1]] {
		occ[uint(p)>>6] |= 1 << (uint(p) & 63)
	}
}

// ScanBytes feeds one chunk of input through the automaton, OR-ing the
// bit of every pattern that ends inside the chunk into occ (which must
// have BitsetWords() length). Pass state 0 to start a new segment and the
// returned state to continue one across chunks: patterns may span chunk
// boundaries within a segment but never across a state reset. ScanBytes
// performs no allocation.
func (m *Matcher) ScanBytes(state int32, chunk []byte, occ []uint64) int32 {
	s := int(state)
	stride := m.stride
	for _, c := range chunk {
		s = int(m.delta[s*stride+int(m.classes[c])])
		if m.outStart[s] != m.outStart[s+1] {
			m.emit(s, occ)
		}
	}
	return int32(s)
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

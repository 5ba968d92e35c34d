// Package ahocorasick implements the Aho–Corasick multi-pattern string
// matching automaton.
//
// The detection engine (§IV/Figure 3(b) of the paper) must test every HTTP
// packet against the union of all signature tokens. A single Aho–Corasick
// pass over the packet reports which tokens occur, after which conjunction
// signatures are checked with per-signature token bitsets.
//
// States are numbered in breadth-first order, and the transition function
// is stored in two forms under a fixed byte budget (denseBudget, 1 MiB).
// The first K = min(states, ⌊budget / (4·stride)⌋) states, the shallow
// ones a scan spends nearly all its time in, each get a dense []int32 row
// indexed by byte class. Every deeper state gets a sparse row: its own
// goto edges merged with those of the sparse states on its failure chain
// (the nearest one wins a class), sorted by class, plus the dense row of
// the first dense state on that chain as fallback. A transition is
// therefore one dense load, or a short edge scan plus at most one dense
// load — never a failure-chasing loop — and the transition function is the
// textbook automaton's exactly.
//
// Each stored transition is the next state's encoded form: a dense state
// is its premultiplied row offset, a sparse state the bitwise complement
// of its premultiplied header offset plus one (so the sign bit tags it),
// and bit 0 of either is set when the state emits outputs (the stride is
// padded to even to keep that bit free). The scan loop makes one table load per byte and
// reads the output lists only on a hit.
//
// Size bound: a merged sparse row holds at most one edge per class, at 5
// bytes an edge (a uint8 class and an int32 target) against 4 bytes a
// dense column, plus an 8-byte header. So the tables never exceed 5/4 of
// the all-dense form plus 8 bytes per state, and for token sets, whose
// deep states have one or two edges, they are far smaller: a 1,000-
// signature set (31k states over 42 token bytes) takes 1.36 MB instead of
// 5.3 MB.
//
// Compile never builds the states × stride table: the trie grows in flat
// sibling arrays, failure links are set in BFS order as δ(fail(parent), c),
// and every array is sized before it is filled, so a compile makes a
// fixed handful of allocations whatever the state count. Byte-class
// compression keeps the rows small: all bytes that never appear in any
// pattern share one column, so a token set over a 40-byte alphabet costs
// 42 columns per dense row instead of 256.
package ahocorasick

// denseBudget caps the bytes of dense rows in one automaton. Tests shrink
// it to put the dense/sparse boundary anywhere; at least the root's row
// is always dense.
var denseBudget = 1 << 20

// Matcher is a compiled Aho–Corasick automaton. It is immutable after
// Compile and safe for concurrent use. Every scan entry point writes into
// a caller-owned occurrence bitset and allocates nothing.
type Matcher struct {
	// numPatterns sizes the occurrence bitset. The patterns themselves
	// are not kept: the automaton alone answers every scan.
	numPatterns int

	// classes maps each input byte to its column in a dense row. Bytes
	// absent from every pattern share one dead column whose transitions
	// all resolve through the root.
	classes [256]uint8
	stride  int32 // columns per dense row, padded to even

	// dense holds the rows of states 0..denseStates-1, stride entries
	// each: dense[off+class] is the encoded next state of the state
	// whose row starts at off.
	dense       []int32
	denseStates int

	// Sparse state denseStates+j owns sparse[2j:2j+3]: its edges are
	// edgeClass/edgeNext[sparse[2j]:sparse[2j+2]], sorted by class, and
	// sparse[2j+1] is the offset of its fallback dense row. The last
	// entry ends the last state's edges.
	sparse    []int32
	edgeClass []uint8
	edgeNext  []int32

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
	// column, in byte order; all others share one dead column (unless the
	// alphabet is already full).
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
	stride += stride & 1
	m.stride = int32(stride)

	// Every temporary is carved from one slab. 1+total nodes is the trie's
	// size when no two patterns share a prefix.
	maxNodes := 1 + total
	slab := make([]int32, 6*maxNodes+1+len(patterns))
	carve := func(k int) []int32 {
		s := slab[:k:k]
		slab = slab[k:]
		return s
	}
	kid, sib, lab := carve(maxNodes), carve(maxNodes), carve(maxNodes)
	order, label, kidStart := carve(maxNodes), carve(maxNodes), carve(maxNodes+1)
	end := carve(len(patterns)) // node each pattern ends in

	// The trie in insertion numbering: kid[u] is u's first child, sib[v]
	// the next child of v's parent, lab[v] the class on the edge into v.
	// 0 means "none", since no edge leads back to the root. Sibling lists
	// are kept sorted by class.
	nodes := int32(1)
	for i, p := range patterns {
		u := int32(0)
		for _, b := range p {
			c := int32(m.classes[b])
			prev, v := int32(-1), kid[u]
			for v != 0 && lab[v] < c {
				prev, v = v, sib[v]
			}
			if v == 0 || lab[v] != c {
				w := nodes
				nodes++
				lab[w], sib[w] = c, v
				if prev < 0 {
					kid[u] = w
				} else {
					sib[prev] = w
				}
				v = w
			}
			u = v
		}
		end[i] = u
	}
	ns := int(nodes)

	// Renumber in BFS order: state s is trie node order[s], label[s] its
	// class, and because a node's children are queued together and in
	// class order, its children are states kidStart[s]..kidStart[s+1]-1,
	// sorted by class.
	queued := 1
	for s := 0; s < ns; s++ {
		kidStart[s] = int32(queued)
		for v := kid[order[s]]; v != 0; v = sib[v] {
			order[queued], label[queued] = v, lab[v]
			queued++
		}
	}
	kidStart[ns] = int32(ns)

	// Own outputs as chains, indexed by trie node now that kid and sib
	// are spent: head[u] is the first pattern ending at u, next[p] the
	// one after p (-1 ends a chain). Linking back to front keeps each
	// chain in pattern order; next reuses end, whose entry is read just
	// before it is overwritten.
	head, fail := kid[:ns], sib[:ns]
	for u := range head {
		head[u] = -1
	}
	fail[0] = 0
	next := end
	for i := len(patterns) - 1; i >= 0; i-- {
		if len(patterns[i]) == 0 {
			continue // ends at the root, which emits nothing
		}
		u := end[i]
		next[i] = head[u]
		head[u] = int32(i)
	}

	k := max(1, min(ns, denseBudget/(4*stride)))
	m.denseStates = k
	m.dense = make([]int32, k*stride)
	m.sparse = make([]int32, 2*(ns-k)+1)
	m.outStart = make([]int32, ns+1)

	// Pass 1, in BFS order. Visiting state s sets each child v's failure
	// link to δ(fail(s), class(v)) — fail(s) is shallower, so its row is
	// complete — and v's output count: its own patterns plus its failure
	// state's. Children are numbered after every state visited so far, so
	// outStart fills in order and a child's encoding is final before s's
	// row is written. A dense s copies its failure state's row (always
	// dense: it comes earlier) and puts its goto edges back; a sparse s
	// records how many edges its merged row will hold, in place of the
	// header entry the prefix sum below turns into an offset, and its
	// fallback row.
	for s := 0; s < ns; s++ {
		f := int(fail[s])
		shadowed := int32(0)
		for v := kidStart[s]; v < kidStart[s+1]; v++ {
			fv, inMerged := 0, false
			if s != 0 {
				fv, inMerged = m.buildStep(f, label[v], kidStart, label, fail)
			}
			fail[v] = int32(fv)
			if inMerged {
				shadowed++
			}
			cnt := m.outStart[fv+1] - m.outStart[fv]
			for p := head[order[v]]; p >= 0; p = next[p] {
				cnt++
			}
			m.outStart[v+1] = m.outStart[v] + cnt
		}
		if s < k {
			row := m.dense[s*stride : (s+1)*stride]
			if s != 0 {
				copy(row, m.dense[f*stride:(f+1)*stride])
			}
			for v := kidStart[s]; v < kidStart[s+1]; v++ {
				row[label[v]] = m.code(int(v))
			}
			continue
		}
		h := 2 * (s - k)
		m.sparse[h] = kidStart[s+1] - kidStart[s]
		if f < k {
			m.sparse[h+1] = int32(f * stride)
		} else {
			m.sparse[h] += m.sparse[2*(f-k)] - shadowed
			m.sparse[h+1] = m.sparse[2*(f-k)+1]
		}
	}
	edges := int32(0)
	for h := 0; h < len(m.sparse); h += 2 {
		edges, m.sparse[h] = edges+m.sparse[h], edges
	}
	m.edgeClass = make([]uint8, edges)
	m.edgeNext = make([]int32, edges)
	m.outList = make([]int32, m.outStart[ns])

	// Pass 2, in BFS order, so a failure state's lists are final before
	// they are read: each state's output list is its own chain then its
	// failure state's list, and a sparse state's merged row is its own
	// edges merged by class with its failure state's merged row, when that
	// state is sparse too; on a shared class its own edge wins.
	for s := 0; s < ns; s++ {
		f := int(fail[s])
		at := m.outStart[s]
		for p := head[order[s]]; p >= 0; p = next[p] {
			m.outList[at] = p
			at++
		}
		copy(m.outList[at:], m.outList[m.outStart[f]:m.outStart[f+1]])
		if s < k {
			continue
		}
		at = m.sparse[2*(s-k)]
		var fi, fe int32 // f's merged row, empty when f is dense
		if f >= k {
			fi, fe = m.sparse[2*(f-k)], m.sparse[2*(f-k)+2]
		}
		for v := kidStart[s]; v < kidStart[s+1]; v++ {
			for ; fi < fe && int32(m.edgeClass[fi]) <= label[v]; fi++ {
				if int32(m.edgeClass[fi]) < label[v] {
					m.edgeClass[at], m.edgeNext[at] = m.edgeClass[fi], m.edgeNext[fi]
					at++
				}
			}
			m.edgeClass[at], m.edgeNext[at] = uint8(label[v]), m.code(int(v))
			at++
		}
		for ; fi < fe; fi++ {
			m.edgeClass[at], m.edgeNext[at] = m.edgeClass[fi], m.edgeNext[fi]
			at++
		}
	}
	return m
}

// buildStep is δ(f, c) while Compile's pass 1 runs, before any merged row
// exists: it walks f's failure chain through sparse states, looking for a
// goto edge on c among their children, and falls back to the first dense
// row on the chain. It returns the next state and whether a sparse state
// supplied it, which is whether c is in f's merged row.
func (m *Matcher) buildStep(f int, c int32, kidStart, label, fail []int32) (int, bool) {
	for f >= m.denseStates {
		for v := kidStart[f]; v < kidStart[f+1] && label[v] <= c; v++ {
			if label[v] == c {
				return int(v), true
			}
		}
		f = int(fail[f])
	}
	return m.state(m.dense[int32(f)*m.stride+c]), false
}

// code is state s's encoded form: see the package doc.
func (m *Matcher) code(s int) int32 {
	out := int32(0)
	if m.outStart[s+1] != m.outStart[s] {
		out = 1
	}
	if s < m.denseStates {
		return int32(s)*m.stride | out
	}
	return ^(int32(2*(s-m.denseStates)) | 1) | out
}

// state decodes an encoded state back to its BFS number.
func (m *Matcher) state(t int32) int {
	if t >= 0 {
		return int((t &^ 1) / m.stride)
	}
	return m.denseStates + int(^t>>1)
}

// sparseNext is the transition out of the sparse state t encodes on class
// c: its merged edge on c if it has one, else its fallback dense row's.
func (m *Matcher) sparseNext(t, c int32) int32 {
	h := ^t &^ 1
	for i, e := m.sparse[h], m.sparse[h+2]; i < e; i++ {
		if k := int32(m.edgeClass[i]); k >= c {
			if k == c {
				return m.edgeNext[i]
			}
			break
		}
	}
	return m.dense[m.sparse[h+1]+c]
}

// BitsetWords returns the length a caller-owned occurrence bitset must
// have: one bit per pattern, packed into uint64 words.
func (m *Matcher) BitsetWords() int { return (m.numPatterns + 63) / 64 }

// States returns the number of automaton states (exposed for sizing
// diagnostics and tests).
func (m *Matcher) States() int { return len(m.outStart) - 1 }

// emit sets the occurrence bit of every pattern the state t encodes emits.
func (m *Matcher) emit(t int32, occ []uint64) {
	s := m.state(t)
	for _, p := range m.outList[m.outStart[s]:m.outStart[s+1]] {
		occ[uint(p)>>6] |= 1 << (uint(p) & 63)
	}
}

// ScanBytes feeds one chunk of input through the automaton, OR-ing the
// bit of every pattern that ends inside the chunk into occ (which must
// have BitsetWords() length). Pass state 0 to start a new segment and the
// returned state, which is opaque, to continue one across chunks: patterns
// may span chunk boundaries within a segment but never across a state
// reset. ScanBytes performs no allocation.
func (m *Matcher) ScanBytes(state int32, chunk []byte, occ []uint64) int32 {
	t := state
	dense, classes := m.dense, &m.classes
	for _, b := range chunk {
		c := int32(classes[b])
		if t >= 0 {
			t = dense[t&^1+c]
		} else {
			t = m.sparseNext(t, c)
		}
		if t&1 != 0 {
			m.emit(t, occ)
		}
	}
	return t
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

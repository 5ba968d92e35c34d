package ahocorasick

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// naiveOccursSegments is the reference segment matcher: a pattern occurs
// iff bytes.Contains finds it inside a single segment. Nothing matches
// across a boundary.
func naiveOccursSegments(patterns [][]byte, segs [][]byte) []bool {
	out := make([]bool, len(patterns))
	for pi, p := range patterns {
		if len(p) == 0 {
			continue
		}
		for _, seg := range segs {
			if bytes.Contains(seg, p) {
				out[pi] = true
				break
			}
		}
	}
	return out
}

func bitsetToBools(occ []uint64, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		if occ[i>>6]&(1<<(uint(i)&63)) != 0 {
			out[i] = true
		}
	}
	return out
}

// TestDifferentialDenseVsNaiveVsMapWalk fuzzes random token sets and
// random multi-segment packets and asserts three-way agreement: the
// compiled automaton (OccursSegments), the naive bytes.Contains reference,
// and the reference map trie with scan-time failure chasing.
func TestDifferentialDenseVsNaiveVsMapWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	alphabets := [][]byte{
		[]byte("ab"),
		[]byte("abcde=&?"),
		{0x00, 0x0a, 0xff, 'a', 'b'}, // binary, includes the old '\n' separator
	}
	randStr := func(alpha []byte, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return b
	}
	for iter := 0; iter < 400; iter++ {
		alpha := alphabets[iter%len(alphabets)]
		np := 1 + rng.Intn(10)
		patterns := make([][]byte, np)
		for i := range patterns {
			patterns[i] = randStr(alpha, rng.Intn(6)) // empty patterns included
		}
		nSegs := 1 + rng.Intn(4)
		segs := make([][]byte, nSegs)
		for i := range segs {
			segs[i] = randStr(alpha, rng.Intn(40))
		}

		m := Compile(patterns)
		occ := make([]uint64, m.BitsetWords())
		m.OccursSegments(occ, segs...)
		dense := bitsetToBools(occ, np)

		naive := naiveOccursSegments(patterns, segs)

		b := newBuilder(patterns)
		mapWalk := make([]bool, np)
		for _, seg := range segs {
			b.occursInto(seg, mapWalk) // state implicitly resets per call
		}

		for i := range patterns {
			if dense[i] != naive[i] {
				t.Fatalf("iter %d: dense[%d]=%v naive=%v patterns=%q segs=%q",
					iter, i, dense[i], naive[i], patterns, segs)
			}
			if dense[i] != mapWalk[i] {
				t.Fatalf("iter %d: dense[%d]=%v mapwalk=%v patterns=%q segs=%q",
					iter, i, dense[i], mapWalk[i], patterns, segs)
			}
		}
	}
}

// TestSegmentBoundaryNeverMatches plants every split of each token across
// two adjacent segments and asserts the segment scan refuses the match,
// while the same bytes in one segment do match.
func TestSegmentBoundaryNeverMatches(t *testing.T) {
	tokens := [][]byte{
		[]byte("udid=f3a9"),
		[]byte("imei4412"),
		[]byte("ab"),
	}
	m := Compile(tokens)
	occ := make([]uint64, m.BitsetWords())
	for ti, tok := range tokens {
		for cut := 1; cut < len(tok); cut++ {
			left := append([]byte("xx"), tok[:cut]...)
			right := append(append([]byte{}, tok[cut:]...), "yy"...)
			m.OccursSegments(occ, left, right)
			if got := bitsetToBools(occ, len(tokens)); got[ti] {
				t.Errorf("token %q matched across segment split %d", tok, cut)
			}
			m.OccursSegments(occ, append(left, right...))
			if got := bitsetToBools(occ, len(tokens)); !got[ti] {
				t.Errorf("token %q missed in joined segment at split %d", tok, cut)
			}
		}
	}
}

// TestScanChunkContinuation verifies the inverse property: chunks of the
// SAME segment (state threaded through) do allow matches spanning chunk
// boundaries, so a segment may be fed to ScanBytes in pieces.
func TestScanChunkContinuation(t *testing.T) {
	m := Compile([][]byte{[]byte("hello world")})
	occ := make([]uint64, m.BitsetWords())
	st := m.ScanBytes(0, []byte("say hello"), occ)
	st = m.ScanBytes(st, []byte(" wor"), occ)
	m.ScanBytes(st, []byte("ld!"), occ)
	if occ[0]&1 == 0 {
		t.Error("pattern spanning three chunks of one segment not matched")
	}
}

// TestScanZeroAlloc pins the allocation contract of the hot scan path.
func TestScanZeroAlloc(t *testing.T) {
	m := Compile([][]byte{[]byte("udid="), []byte("imei="), []byte("carrier=docomo")})
	occ := make([]uint64, m.BitsetWords())
	text := []byte("GET /track?udid=abc&carrier=docomo HTTP/1.1")
	allocs := testing.AllocsPerRun(100, func() {
		m.OccursSegments(occ, text)
	})
	if allocs != 0 {
		t.Errorf("OccursSegments allocated %v per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		st := m.ScanBytes(0, text[:10], occ)
		m.ScanBytes(st, text[10:], occ)
	})
	if allocs != 0 {
		t.Errorf("chunked ScanBytes allocated %v per run, want 0", allocs)
	}
}

// refClasses states the byte-class rule without reading Compile: bytes
// that occur in a pattern are numbered in byte order, all others share
// one further column unless the alphabet is full.
func refClasses(patterns [][]byte) (classes [256]uint8, stride int) {
	used := map[byte]bool{}
	for _, p := range patterns {
		for _, c := range p {
			used[c] = true
		}
	}
	for c := 0; c < 256; c++ {
		if used[byte(c)] {
			classes[c] = uint8(stride)
			stride++
		}
	}
	if stride < 256 {
		for c := 0; c < 256; c++ {
			if !used[byte(c)] {
				classes[c] = uint8(stride)
			}
		}
		stride++
	}
	return classes, stride
}

// budgets are the dense-row budgets the differential tests run at: only
// the root's row dense (every other state sparse, so failure chains run
// through sparse states), three dense rows, and the default.
var budgets = []struct {
	name string
	rows int // 0: the default budget
}{{"dense=1", 1}, {"dense=3", 3}, {"dense=default", 0}}

// atBudget runs fn with denseBudget set to the given number of dense rows
// for this pattern set's stride, then restores it.
func atBudget(patterns [][]byte, rows int, fn func()) {
	if rows > 0 {
		_, stride := refClasses(patterns)
		defer func(b int) { denseBudget = b }(denseBudget)
		denseBudget = rows * 4 * (stride + stride&1)
	}
	fn()
}

// step is one transition on BFS state numbers, taken through ScanBytes
// itself; the outputs of the state it reaches are OR-ed into occ.
func (m *Matcher) step(s int32, c byte, occ []uint64) int32 {
	in := [1]byte{c}
	return int32(m.state(m.ScanBytes(m.code(int(s)), in[:], occ)))
}

// tableBytes is the size of the transition tables, dense and sparse.
func (m *Matcher) tableBytes() int {
	return 4*(len(m.dense)+len(m.sparse)+len(m.edgeNext)) + len(m.edgeClass)
}

// checkAgainstTrie compares Compile with the reference map trie on one
// pattern set: the same byte classes and state count, states numbered in
// BFS order, the same transition out of every state on every byte (with
// the outputs ScanBytes emits on arriving), the same outputs per state,
// and the same occurrence bitset for every text when the scan is fed in
// chunk-byte pieces (so patterns straddle chunk boundaries). The two
// number their states differently — the trie in insertion order — so the
// map between them, ids, follows the trie's edges through step.
func checkAgainstTrie(t testing.TB, patterns, texts [][]byte, chunk int) {
	t.Helper()
	m, b := Compile(patterns), newBuilder(patterns)
	ns := m.States()
	if ns != len(b.nodes) {
		t.Fatalf("States() = %d, trie has %d; patterns=%q", ns, len(b.nodes), patterns)
	}
	classes, stride := refClasses(patterns)
	if int(m.stride) != stride+stride&1 || m.classes != classes {
		t.Fatalf("stride %d classes %v, want %d padded to even, %v; patterns=%q", m.stride, m.classes, stride, classes, patterns)
	}
	dense := min(ns, max(1, denseBudget/(4*int(m.stride))))
	if m.denseStates != dense || len(m.dense) != dense*int(m.stride) || len(m.sparse) != 2*(ns-dense)+1 {
		t.Fatalf("%d dense states, %d dense and %d sparse header entries; want %d of %d states dense", m.denseStates, len(m.dense), len(m.sparse), dense, ns)
	}

	occ := make([]uint64, m.BitsetWords())
	ids := make([]int32, ns)
	depth := make([]int, ns)
	seen := make([]bool, ns)
	seen[0] = true
	queue := []int32{0}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for c, v := range b.nodes[u].next {
			s := m.step(ids[u], c, occ)
			if seen[s] {
				t.Fatalf("trie node %d reaches state %d, already taken; patterns=%q", v, s, patterns)
			}
			seen[s], ids[v], depth[s] = true, s, depth[ids[u]]+1
			queue = append(queue, v)
		}
	}
	for s := 1; s < ns; s++ {
		if depth[s] < depth[s-1] {
			t.Fatalf("state %d has depth %d after depth %d: not BFS order; patterns=%q", s, depth[s], depth[s-1], patterns)
		}
	}
	w := m.BitsetWords()
	emits := make([]uint64, len(b.nodes)*w) // each trie node's outputs as a bitset
	for u, node := range b.nodes {
		for _, p := range node.out {
			emits[u*w+int(p)>>6] |= 1 << (uint(p) & 63)
		}
	}
	for u := range b.nodes {
		for c := 0; c < 256; c++ {
			clear(occ)
			v := b.step(int32(u), byte(c))
			if got := m.step(ids[u], byte(c), occ); got != ids[v] {
				t.Fatalf("step(%d, %#x) = %d, trie steps to state %d; patterns=%q", ids[u], c, got, ids[v], patterns)
			}
			if want := emits[int(v)*w : int(v+1)*w]; !slices.Equal(occ, want) {
				t.Fatalf("step(%d, %#x) emits %v, trie emits %v; patterns=%q", ids[u], c, bitsetToBools(occ, len(patterns)), bitsetToBools(want, len(patterns)), patterns)
			}
		}
		// Own outputs in pattern order, then the failure state's: the
		// order the reference merges in.
		s := ids[u]
		if got := m.outList[m.outStart[s]:m.outStart[s+1]]; !slices.Equal(got, b.nodes[u].out) {
			t.Fatalf("state %d emits %v, trie emits %v; patterns=%q", s, got, b.nodes[u].out, patterns)
		}
	}
	for _, text := range texts {
		clear(occ)
		st := int32(0)
		for at := 0; at < len(text); at += chunk {
			st = m.ScanBytes(st, text[at:min(at+chunk, len(text))], occ)
		}
		want := make([]bool, len(patterns))
		b.occursInto(text, want)
		if got := bitsetToBools(occ, len(patterns)); !slices.Equal(got, want) {
			t.Fatalf("chunk %d: occurs = %v, trie says %v; patterns=%q text=%q", chunk, got, want, patterns, text)
		}
	}
}

// TestCompileMatchesTrie runs checkAgainstTrie, at every budget, over the
// pattern shapes that stress the construction — duplicates, empty
// patterns, patterns that are prefixes, suffixes and infixes of each
// other, the full byte alphabet (no dead column) with single bytes and
// with deep states, single bytes, heavy prefix sharing, a sparse state
// whose merged row shadows edges along a sparse failure chain, and none —
// and over random sets. Shapes with an even number of distinct bytes pad
// the stride.
func TestCompileMatchesTrie(t *testing.T) {
	allBytes := make([][]byte, 0, 258)
	for c := 0; c < 256; c++ {
		allBytes = append(allBytes, []byte{byte(c)})
	}
	allBytes = append(allBytes, []byte{0xff, 0x00, 0xff}, []byte("ab"))
	var deepBytes [][]byte
	for c := 0; c < 256; c += 3 {
		deepBytes = append(deepBytes, []byte{byte(c), byte(c + 1), byte(c + 2), byte(c + 3)}, []byte{byte(c + 2), byte(c + 3), byte(c + 4)})
	}
	var shared [][]byte
	for i := 0; i < 40; i++ {
		shared = append(shared, []byte("a-long-common-prefix/"+string(rune('a'+i%26))+string(rune('a'+i/26))))
	}
	fixed := map[string][][]byte{
		"duplicates":         pats("ab", "ab", "b", "ab"),
		"empty patterns":     pats("", "a", "", "ba"),
		"only empty":         pats("", ""),
		"none":               nil,
		"prefix suffix mid":  pats("abcde", "abc", "bcd", "cde", "c", "e", "abcdef", "bcdef"),
		"nested repeats":     pats("a", "aa", "aaa", "aaaaa", "aab"),
		"single bytes":       pats("a", "b", "a", "="),
		"full alphabet":      allBytes,
		"full alphabet deep": deepBytes,
		"shared prefix":      shared,
		"nothing shared":     pats("abcd", "efgh", "ijkl"),
		// yzab fails to zab, then ab, then b: all sparse below the
		// default budget. Its merged row takes c from zab, shadowing ab's
		// c, and keeps its own d, shadowing ab's d.
		"sparse chain shadowing": pats("yzabe", "yzabd", "zabc", "abc", "abd", "b"),
	}
	rng := rand.New(rand.NewSource(7))
	for name, patterns := range fixed {
		texts := [][]byte{nil, []byte("xxabcdefxaaaaabab=ab"), []byte("yzabcyzabdyzabe"), bytes.Join(patterns, nil), bytes.Join(patterns, []byte("a"))}
		junk := make([]byte, 300)
		rng.Read(junk)
		texts = append(texts, junk)
		for _, chunk := range []int{1, 2, 3, 1 << 20} {
			t.Run(fmt.Sprintf("%s/chunk=%d", name, chunk), func(t *testing.T) {
				for _, bu := range budgets {
					t.Run(bu.name, func(t *testing.T) {
						atBudget(patterns, bu.rows, func() { checkAgainstTrie(t, patterns, texts, chunk) })
					})
				}
			})
		}
	}

	alphabets := [][]byte{[]byte("ab"), []byte("abc=&"), {0x00, 0x7f, 0x80, 0xff}}
	for iter := 0; iter < 300; iter++ {
		alpha := alphabets[iter%len(alphabets)]
		randStr := func(n int) []byte {
			b := make([]byte, n)
			for i := range b {
				b[i] = alpha[rng.Intn(len(alpha))]
			}
			return b
		}
		patterns := make([][]byte, rng.Intn(30))
		for i := range patterns {
			patterns[i] = randStr(rng.Intn(9))
		}
		texts := [][]byte{randStr(rng.Intn(200)), randStr(rng.Intn(200)), bytes.Join(patterns, nil)}
		chunk := 1 + rng.Intn(5)
		for _, bu := range budgets {
			atBudget(patterns, bu.rows, func() { checkAgainstTrie(t, patterns, texts, chunk) })
		}
	}
}

// FuzzCompileVsTrie lets the fuzzer pick the pattern set, the text and
// the chunk size, and checks every budget: the input is cut into patterns
// at every 0xff byte after the first, which sizes the chunks.
func FuzzCompileVsTrie(f *testing.F) {
	f.Add([]byte("\x02he\xffshe\xffhis\xffhers"), []byte("ushers"))
	f.Add([]byte("\x01\xff\xffab\xffab\xffb"), []byte("abab"))
	f.Add([]byte("\x03aa\xffaaa\xffa"), []byte("aaaa"))
	f.Fuzz(func(t *testing.T, spec, text []byte) {
		if len(spec) == 0 || len(spec) > 512 || len(text) > 4096 {
			return
		}
		chunk := 1 + int(spec[0])%8
		patterns := bytes.Split(spec[1:], []byte{0xff})
		for _, bu := range budgets {
			atBudget(patterns, bu.rows, func() { checkAgainstTrie(t, patterns, [][]byte{text}, chunk) })
		}
	})
}

// tokenSet fabricates the distinct tokens of an n-signature set shaped
// like a published one: about 2.1 tokens per signature, 8–24 bytes each
// over a 42-byte alphabet, little shared between them.
func tokenSet(n int) [][]byte {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789=&/_-."
	rng := rand.New(rand.NewSource(int64(n)))
	out := make([][]byte, n*21/10)
	for i := range out {
		out[i] = make([]byte, 8+rng.Intn(17))
		for j := range out[i] {
			out[i][j] = alphabet[rng.Intn(len(alphabet))]
		}
	}
	return out
}

// TestCompileAllocsDoNotScaleWithStates pins the construction's
// allocation count: a fixed handful of flat slices, the same for a
// 3,000-state automaton and a 60,000-state one. A per-state map or slice
// creeping back in shows up here as tens of thousands.
func TestCompileAllocsDoNotScaleWithStates(t *testing.T) {
	for _, n := range []int{100, 2000} {
		patterns := tokenSet(n)
		states := Compile(patterns).States()
		if allocs := testing.AllocsPerRun(3, func() { Compile(patterns) }); allocs > 12 {
			t.Errorf("Compile of %d patterns (%d states) made %v allocations, want at most 12", len(patterns), states, allocs)
		}
	}
}

// TestCompiledTableBytesBounded pins the transition tables' footprint:
// published-shape sets of 1,000 and 10,000 signatures (5.3 and 50.5 MB
// when every state had a dense row) stay within 2 and 8 MiB, and random
// sets at every budget, over alphabets up to the full 256 bytes, never
// exceed the package doc's bound of 5/4 of the all-dense form plus 8
// bytes per state.
func TestCompiledTableBytesBounded(t *testing.T) {
	for _, c := range []struct{ sigs, max int }{{1000, 2 << 20}, {10000, 8 << 20}} {
		m := Compile(tokenSet(c.sigs))
		if got := m.tableBytes(); got > c.max {
			t.Errorf("tokenSet(%d): %d states take %d table bytes, want at most %d", c.sigs, m.States(), got, c.max)
		}
	}
	full := make([]byte, 256)
	for i := range full {
		full[i] = byte(i)
	}
	alphabets := [][]byte{[]byte("ab"), []byte("abc=&"), {0x00, 0x7f, 0x80, 0xff}, full}
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 200; iter++ {
		alpha := alphabets[iter%len(alphabets)]
		patterns := make([][]byte, rng.Intn(300))
		for i := range patterns {
			patterns[i] = make([]byte, rng.Intn(12))
			for j := range patterns[i] {
				patterns[i][j] = alpha[rng.Intn(len(alpha))]
			}
		}
		_, columns := refClasses(patterns)
		for _, bu := range budgets {
			atBudget(patterns, bu.rows, func() {
				m := Compile(patterns)
				if got, bound := m.tableBytes(), 5*m.States()*columns+8*m.States(); got > bound {
					t.Fatalf("%s: %d states x %d columns take %d table bytes, bound %d; patterns=%q", bu.name, m.States(), columns, got, bound, patterns)
				}
			})
		}
	}
}

var benchMatcher *Matcher

func benchmarkCompile(b *testing.B, sigs int) {
	patterns := tokenSet(sigs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchMatcher = Compile(patterns)
	}
	b.ReportMetric(float64(benchMatcher.States()), "states")
	b.ReportMetric(float64(benchMatcher.tableBytes()), "table-bytes")
}

func BenchmarkCompile1k(b *testing.B)  { benchmarkCompile(b, 1000) }
func BenchmarkCompile10k(b *testing.B) { benchmarkCompile(b, 10000) }

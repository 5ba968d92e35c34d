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
// random multi-segment packets and asserts three-way agreement: the dense
// flat automaton (OccursSegments), the naive bytes.Contains reference,
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

// checkAgainstTrie compares the flat Compile with the reference map trie
// on one pattern set: same state count and numbering, same byte classes,
// the same transition out of every state on every byte, the same outputs
// per state, and the same occurrence bitset for every text when the scan
// is fed in chunk-byte pieces (so patterns straddle chunk boundaries).
func checkAgainstTrie(t testing.TB, patterns, texts [][]byte, chunk int) {
	t.Helper()
	m, b := Compile(patterns), newBuilder(patterns)
	if m.States() != len(b.nodes) {
		t.Fatalf("States() = %d, trie has %d; patterns=%q", m.States(), len(b.nodes), patterns)
	}
	classes, stride := refClasses(patterns)
	if m.stride != stride || m.classes != classes {
		t.Fatalf("stride %d classes %v, want %d %v; patterns=%q", m.stride, m.classes, stride, classes, patterns)
	}
	if len(m.delta) != m.States()*stride {
		t.Fatalf("delta has %d entries, want %d states x %d columns", len(m.delta), m.States(), stride)
	}
	for s := range b.nodes {
		for c := 0; c < 256; c++ {
			if got, want := m.delta[s*stride+int(classes[c])], b.step(int32(s), byte(c)); got != want {
				t.Fatalf("delta(%d, %#x) = %d, trie steps to %d; patterns=%q", s, c, got, want, patterns)
			}
		}
		// Own outputs in pattern order, then the failure state's: the
		// order the reference merges in.
		if got := m.outList[m.outStart[s]:m.outStart[s+1]]; !slices.Equal(got, b.nodes[s].out) {
			t.Fatalf("state %d emits %v, trie emits %v; patterns=%q", s, got, b.nodes[s].out, patterns)
		}
	}
	occ := make([]uint64, m.BitsetWords())
	for _, text := range texts {
		for i := range occ {
			occ[i] = 0
		}
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

// TestCompileMatchesTrie runs checkAgainstTrie over the pattern shapes
// that stress the flat construction — duplicates, empty patterns,
// patterns that are prefixes, suffixes and infixes of each other, the
// full byte alphabet (no dead column), single bytes, heavy prefix
// sharing (the reservation is cut down) and none — and over random sets.
func TestCompileMatchesTrie(t *testing.T) {
	allBytes := make([][]byte, 0, 258)
	for c := 0; c < 256; c++ {
		allBytes = append(allBytes, []byte{byte(c)})
	}
	allBytes = append(allBytes, []byte{0xff, 0x00, 0xff}, []byte("ab"))
	var shared [][]byte
	for i := 0; i < 40; i++ {
		shared = append(shared, []byte("a-long-common-prefix/"+string(rune('a'+i%26))+string(rune('a'+i/26))))
	}
	fixed := map[string][][]byte{
		"duplicates":        pats("ab", "ab", "b", "ab"),
		"empty patterns":    pats("", "a", "", "ba"),
		"only empty":        pats("", ""),
		"none":              nil,
		"prefix suffix mid": pats("abcde", "abc", "bcd", "cde", "c", "e", "abcdef", "bcdef"),
		"nested repeats":    pats("a", "aa", "aaa", "aaaaa", "aab"),
		"single bytes":      pats("a", "b", "a", "="),
		"full alphabet":     allBytes,
		"shared prefix":     shared,
		"nothing shared":    pats("abcd", "efgh", "ijkl"),
	}
	rng := rand.New(rand.NewSource(7))
	for name, patterns := range fixed {
		texts := [][]byte{nil, []byte("xxabcdefxaaaaabab=ab"), bytes.Join(patterns, nil), bytes.Join(patterns, []byte("a"))}
		junk := make([]byte, 300)
		rng.Read(junk)
		texts = append(texts, junk)
		for _, chunk := range []int{1, 2, 3, 1 << 20} {
			t.Run(fmt.Sprintf("%s/chunk=%d", name, chunk), func(t *testing.T) { checkAgainstTrie(t, patterns, texts, chunk) })
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
		checkAgainstTrie(t, patterns, texts, 1+rng.Intn(5))
	}
}

// FuzzCompileVsTrie lets the fuzzer pick the pattern set, the text and
// the chunk size: the input is cut into patterns at every 0xff byte after
// the first, which sizes the chunks.
func FuzzCompileVsTrie(f *testing.F) {
	f.Add([]byte("\x02he\xffshe\xffhis\xffhers"), []byte("ushers"))
	f.Add([]byte("\x01\xff\xffab\xffab\xffb"), []byte("abab"))
	f.Add([]byte("\x03aa\xffaaa\xffa"), []byte("aaaa"))
	f.Fuzz(func(t *testing.T, spec, text []byte) {
		if len(spec) == 0 || len(spec) > 512 || len(text) > 4096 {
			return
		}
		chunk := 1 + int(spec[0])%8
		checkAgainstTrie(t, bytes.Split(spec[1:], []byte{0xff}), [][]byte{text}, chunk)
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

var benchMatcher *Matcher

func benchmarkCompile(b *testing.B, sigs int) {
	patterns := tokenSet(sigs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchMatcher = Compile(patterns)
	}
	b.ReportMetric(float64(benchMatcher.States()), "states")
}

func BenchmarkCompile1k(b *testing.B)  { benchmarkCompile(b, 1000) }
func BenchmarkCompile10k(b *testing.B) { benchmarkCompile(b, 10000) }

package ncd

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"sync"
	"testing"

	"leaksig/internal/trafficgen"
)

// countingWriter counts bytes written and discards them.
type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// refWriter is the reference compressor, reused across calls (tests in
// this package do not run in parallel).
var refWriter, _ = flate.NewWriter(nil, flate.BestCompression)

// flateLen is the reference: the length compress/flate emits for p then q
// at BestCompression.
func flateLen(p, q []byte) int {
	var n countingWriter
	refWriter.Reset(&n)
	refWriter.Write(p)
	refWriter.Write(q)
	refWriter.Close()
	return int(n)
}

// checkLen fails unless the kernel on d agrees with compress/flate on
// (p, q).
func checkLen(t testing.TB, d *deflater, what string, p, q []byte) {
	t.Helper()
	if got, want := d.compressedLen(p, q), flateLen(p, q); got != want {
		t.Fatalf("%s (%d+%d bytes): kernel %d, compress/flate %d", what, len(p), len(q), got, want)
	}
}

// traceFields returns the distinct content fields (request line, cookie,
// body) of a trafficgen capture, in first-seen order.
func traceFields(cfg trafficgen.Config) [][]byte {
	seen := map[string]bool{}
	var out [][]byte
	for _, p := range trafficgen.Generate(cfg).Capture.Packets {
		for _, f := range p.ContentFields() {
			if !seen[string(f)] {
				seen[string(f)] = true
				out = append(out, f)
			}
		}
	}
	return out
}

// randomInput returns n bytes drawn from the first alphabet byte values:
// 256 gives incompressible input, small alphabets long repeats.
func randomInput(rng *rand.Rand, n, alphabet int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(alphabet))
	}
	return b
}

// skewedOffsetInput returns about 29 KB whose matches' offset codes
// have Fibonacci-skewed counts: offset code 16 once, 15 once, 14 twice
// and so on up to code 0, 987 times. Each match copies 8 bytes from the
// start of fresh random bytes placed just before it, at the distance
// planned for it (lazy matching moves some). The offset code lengths then
// take most values from 1 to 15, and the code-length code built over
// them outgrows its 7 bits, so generate falls back to bitCounts.
func skewedOffsetInput() []byte {
	rng := rand.New(rand.NewSource(1))
	var shortest [offsetCodeCount]int // the shortest distance per offset code
	for dist := windowSize; dist >= 1; dist-- {
		shortest[offsetCode(uint32(dist-1))] = dist
	}
	var plan []int
	for c, n, next := 16, 1, 1; c >= 0; c, n, next = c-1, next, n+next {
		for range n {
			plan = append(plan, shortest[c])
		}
	}
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	var in []byte
	for _, dist := range plan {
		in = append(in, randomInput(rng, dist, 256)...)
		for range 8 {
			in = append(in, in[len(in)-dist])
		}
	}
	return in
}

func TestFlateCompressedLenMatchesManual(t *testing.T) {
	f := Default()
	data := bytes.Repeat([]byte("abcabc"), 50)
	if got, want := f.CompressedLen(data), flateLen(data, nil); got != want {
		t.Errorf("CompressedLen = %d, manual flate = %d", got, want)
	}
	if got, want := f.CompressedLen(nil), flateLen(nil, nil); got != want {
		t.Errorf("CompressedLen(nil) = %d, manual flate = %d", got, want)
	}
}

// TestCompressedLenMatchesFlateOnTrace runs every distinct content field
// of a trafficgen capture, and pairs of them, through one reused state.
func TestCompressedLenMatchesFlateOnTrace(t *testing.T) {
	cfg := trafficgen.Config{Seed: 1}
	if testing.Short() {
		cfg = trafficgen.Config{Seed: 1, NumApps: 120, TotalPackets: 6000}
	}
	fields := traceFields(cfg)
	d := new(deflater)
	for i, f := range fields {
		checkLen(t, d, "field", f, nil)
		// Pairs as the NCD terms form them: a field with its neighbour
		// (often the same module's next request) and with a far one.
		checkLen(t, d, "pair", f, fields[(i+1)%len(fields)])
		if i%4 == 0 {
			checkLen(t, d, "pair", f, fields[(i*7919)%len(fields)])
		}
	}
	t.Logf("%d distinct fields", len(fields))
}

// TestCompressedLenMatchesFlateOnLongInputs covers what short fields
// never reach: several blocks, stored blocks, the window slide and the
// hash-offset rebase, on random and low-alphabet inputs past three
// windows, split at arbitrary points between p and q.
func TestCompressedLenMatchesFlateOnLongInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := new(deflater)
	for _, alphabet := range []int{256, 64, 16, 4, 2, 1} {
		for _, n := range []int{0, 1, 3, 4, 5, 257, 262, 263, 4096, 65535, 65536, 3*windowSize + 1, 200_000} {
			in := randomInput(rng, n, alphabet)
			cut := rng.Intn(n + 1)
			checkLen(t, d, "long", in[:cut], in[cut:])
		}
	}
	// Text-like input: long matches, which take findMatch's nice-length
	// exit and its shortened chain once a match is good enough. (The
	// incompressible inputs above are what fill maxFlateBlockTokens.)
	text := bytes.Repeat([]byte("GET /ad/fetch?zone=12&udid=f3a9c1d200b14e67&r="), 6000)
	for i := 0; i < len(text); i += 97 {
		text[i] = byte('a' + rng.Intn(26))
	}
	checkLen(t, d, "text", text, nil)
	checkLen(t, d, "text halves", text[:len(text)/2], text[len(text)/2:])
}

// TestCompressedLenThroughPackageMerge checks blocks whose unlimited
// Huffman tree is too deep against compress/flate, whole and split.
func TestCompressedLenThroughPackageMerge(t *testing.T) {
	in := skewedOffsetInput()
	d := new(deflater)
	checkLen(t, d, "skewed offsets", in, nil)
	checkLen(t, d, "skewed offsets, split", in[:len(in)/3], in[len(in)/3:])
	if d.lit.packageMerges+d.off.packageMerges+d.cg.packageMerges == 0 {
		t.Fatal("no block took the package-merge fallback")
	}
}

// TestResetWithoutClearing runs small inputs on a state a large one left
// full of hash entries, in both orders, as the learner's pool does.
func TestResetWithoutClearing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := new(deflater)
	small := []byte("GET /ad?udid=f3a9c1d2&zone=7 HTTP/1.1")
	for round := 0; round < 20; round++ {
		large := randomInput(rng, 1+rng.Intn(150_000), 1+rng.Intn(8))
		checkLen(t, d, "large", large, nil)
		checkLen(t, d, "small after large", small, nil)
		checkLen(t, d, "small prefix of large", large[:rng.Intn(min(len(large), 600))], small)
		checkLen(t, d, "small pair", small, small)
	}
}

// TestStateNearClearingThreshold starts streams with hashOffset just
// below maxHashOffset: some resets clear the tables for real, some
// streams rebase their hash entries mid-stream while stale entries from
// earlier streams are still in the tables.
func TestStateNearClearingThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := new(deflater)
	for _, below := range []int{1, 2, 40, 300, windowSize - 1, windowSize, windowSize + 1, 3 * windowSize, 5 * windowSize} {
		// Fill the tables with entries from an earlier stream.
		checkLen(t, d, "fill", randomInput(rng, 100_000, 4), nil)
		d.hashOffset = maxHashOffset - below - d.windowEnd
		for _, n := range []int{50, 1000, 70_000, 140_000} {
			// Three symbols keep the hash heads recent; 256 leave heads
			// from a window back when the rebase runs.
			for _, alphabet := range []int{3, 256} {
				checkLen(t, d, "near threshold", randomInput(rng, n, alphabet), nil)
			}
		}
	}
}

func TestCompressedLen2EqualsConcat(t *testing.T) {
	f := Default()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		a := make([]byte, rng.Intn(300))
		b := make([]byte, rng.Intn(300))
		rng.Read(a)
		rng.Read(b)
		concat := append(append([]byte{}, a...), b...)
		if got, want := f.CompressedLen2(a, b), f.CompressedLen(concat); got != want {
			t.Fatalf("CompressedLen2 = %d, CompressedLen(concat) = %d", got, want)
		}
	}
}

// TestFlateConcurrent shares one Flate, and so its pool of states,
// between goroutines, as NewMatrix's workers do.
func TestFlateConcurrent(t *testing.T) {
	f := Default()
	rng := rand.New(rand.NewSource(2))
	inputs := make([][]byte, 16)
	want := make([]int, len(inputs))
	for i := range inputs {
		inputs[i] = randomInput(rng, rng.Intn(3000), 1+rng.Intn(256))
	}
	for i := range inputs {
		want[i] = flateLen(inputs[i], inputs[(i+1)%len(inputs)])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for k := 0; k < 200; k++ {
				i := r.Intn(len(inputs))
				if got := f.CompressedLen2(inputs[i], inputs[(i+1)%len(inputs)]); got != want[i] {
					t.Errorf("input %d: CompressedLen2 = %d, compress/flate %d", i, got, want[i])
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestCompressedLen2AllocatesNothing(t *testing.T) {
	f := Default()
	x := []byte("GET /mads/gma?u=8a6b1c9f33d200e7&fmt=html&zone=12 HTTP/1.1")
	y := []byte("GET /mads/gma?u=8a6b1c9f33d200e7&fmt=json&zone=98 HTTP/1.1")
	f.CompressedLen2(x, y)
	if n := testing.AllocsPerRun(200, func() { f.CompressedLen2(x, y) }); n != 0 {
		t.Fatalf("CompressedLen2 allocates %v times per call", n)
	}
	// Blocks that take the package-merge fallback allocate nothing either.
	skewed := skewedOffsetInput()
	if n := testing.AllocsPerRun(20, func() { f.CompressedLen2(skewed[:100], skewed[100:]) }); n != 0 {
		t.Fatalf("CompressedLen2 on skewed offsets allocates %v times per call", n)
	}
}

func TestDistanceIdenticalIsSmall(t *testing.T) {
	f := Default()
	x := bytes.Repeat([]byte("GET /ad?udid=f3a9c1d2&zone=7 HTTP/1.1\r\n"), 4)
	d := Distance(f, x, x)
	if d < 0 || d > 0.35 {
		t.Errorf("NCD(x, x) = %v, want near 0", d)
	}
}

func TestDistanceRandomIsLarge(t *testing.T) {
	f := Default()
	rng := rand.New(rand.NewSource(9))
	x := make([]byte, 512)
	y := make([]byte, 512)
	rng.Read(x)
	rng.Read(y)
	d := Distance(f, x, y)
	if d < 0.7 {
		t.Errorf("NCD(random, random) = %v, want > 0.7", d)
	}
}

func TestDistanceOrdering(t *testing.T) {
	// Similar strings must score lower than dissimilar ones.
	f := Default()
	base := []byte("GET /track/v1?udid=8a6b1c9f33d200e7&carrier=docomo&os=android2.3 HTTP/1.1")
	near := []byte("GET /track/v1?udid=8a6b1c9f33d200e7&carrier=docomo&os=android4.0 HTTP/1.1")
	rng := rand.New(rand.NewSource(1))
	far := make([]byte, len(base))
	rng.Read(far)
	dNear := Distance(f, base, near)
	dFar := Distance(f, base, far)
	if dNear >= dFar {
		t.Errorf("NCD(base, near) = %v should be < NCD(base, far) = %v", dNear, dFar)
	}
}

func TestDistanceSymmetryApprox(t *testing.T) {
	// NCD is symmetric up to compressor asymmetry on concatenation order;
	// for flate on textual inputs the difference should be tiny.
	f := Default()
	x := []byte("udid=8a6b1c9f33d200e7&app=com.example.game&zone=12")
	y := []byte("udid=8a6b1c9f33d200e7&app=com.example.tool&zone=99")
	dxy := Distance(f, x, y)
	dyx := Distance(f, y, x)
	diff := dxy - dyx
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.1 {
		t.Errorf("NCD asymmetry too large: d(x,y)=%v d(y,x)=%v", dxy, dyx)
	}
}

func TestDistanceEmptyInputs(t *testing.T) {
	f := Default()
	if d := Distance(f, nil, nil); d != 0 {
		t.Errorf("NCD(empty, empty) = %v, want 0", d)
	}
	// One empty side: distance should be high (shares nothing).
	d := Distance(f, nil, bytes.Repeat([]byte("abcdefgh"), 32))
	if d <= 0.5 {
		t.Errorf("NCD(empty, x) = %v, want > 0.5", d)
	}
}

// countingCompressor counts the compressions of concatenations.
type countingCompressor struct {
	Compressor
	pairs int
}

func (c *countingCompressor) CompressedLen2(p, q []byte) int {
	c.pairs++
	return c.Compressor.CompressedLen2(p, q)
}

// TestDistanceLensEmptySide pins the shortcut for one empty side:
// C(·y) = C(y·) = C(y) as compress/flate counts it, so DistanceLens
// returns the distance it would compute from C(x·y) without compressing.
func TestDistanceLensEmptySide(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := &countingCompressor{Compressor: Default()}
	empty := c.CompressedLen(nil)
	for _, y := range [][]byte{
		{'a'},
		[]byte("Cookie: sid=0123456789abcdef; uid=42"),
		randomInput(rng, 5000, 256),
		randomInput(rng, 100_000, 3),
	} {
		cy := c.CompressedLen(y)
		if want := flateLen(y, nil); cy != want {
			t.Fatalf("%d bytes: CompressedLen %d, compress/flate %d", len(y), cy, want)
		}
		if a, b := c.CompressedLen2(nil, y), c.CompressedLen2(y, nil); a != cy || b != cy {
			t.Fatalf("%d bytes: CompressedLen2(nil, y) %d, CompressedLen2(y, nil) %d, CompressedLen(y) %d", len(y), a, b, cy)
		}
		want := float64(cy-min(empty, cy)) / float64(max(empty, cy))
		c.pairs = 0
		if d := DistanceLens(c, nil, y, empty, cy); d != want {
			t.Errorf("%d bytes: DistanceLens(nil, y) = %v, want %v", len(y), d, want)
		}
		if d := DistanceLens(c, y, nil, cy, empty); d != want {
			t.Errorf("%d bytes: DistanceLens(y, nil) = %v, want %v", len(y), d, want)
		}
		if c.pairs != 0 {
			t.Errorf("%d bytes: DistanceLens compressed %d concatenations with an empty side", len(y), c.pairs)
		}
	}
}

func TestDistanceNonNegative(t *testing.T) {
	f := Default()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 100; i++ {
		a := make([]byte, rng.Intn(200))
		b := make([]byte, rng.Intn(200))
		rng.Read(a)
		rng.Read(b)
		if d := Distance(f, a, b); d < 0 {
			t.Fatalf("NCD < 0: %v", d)
		}
	}
}

// FuzzCompressedLen checks the kernel against compress/flate on
// arbitrary (p, q). Every iteration first compresses one large input on
// the same state, so the fuzzed stream starts from tables full of stale
// entries, as it would in the learner's pool.
func FuzzCompressedLen(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	// Incompressible, so cheap at BestCompression, yet one hash entry per
	// position and past the window slide.
	large := randomInput(rng, 70_000, 256)
	f.Add([]byte("GET /ad?udid=f3a9c1d2&zone=7 HTTP/1.1"), []byte("GET /ad?udid=99aa88bb&zone=9 HTTP/1.1"))
	f.Add([]byte{}, []byte{})
	f.Add(bytes.Repeat([]byte{'a'}, 600), []byte("sid=0123456789abcdef"))
	f.Add(randomInput(rng, 300, 256), randomInput(rng, 5, 2))
	d := new(deflater)
	f.Fuzz(func(t *testing.T, p, q []byte) {
		d.compressedLen(large, nil)
		checkLen(t, d, "fuzz", p, q)
	})
}

func BenchmarkCompressedLen256(b *testing.B) {
	f := Default()
	data := bytes.Repeat([]byte("GET /ad?udid=f3a9c1d2&zone=7\r\n"), 9)[:256]
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.CompressedLen(data)
	}
}

// BenchmarkCompressedLen times C(x) and C(xy) on the fields the learner
// compresses: request lines, cookies and bodies of a trafficgen capture,
// each alone and each after the next one, as DistanceLens pays them.
func BenchmarkCompressedLen(b *testing.B) {
	var fields [][]byte
	for _, f := range traceFields(trafficgen.Config{Seed: 1, NumApps: 120, TotalPackets: 6000}) {
		if len(f) > 0 {
			fields = append(fields, f)
		}
	}
	var n int64
	for _, f := range fields {
		n += int64(len(f))
	}
	c := Default()
	b.SetBytes(3 * n / int64(len(fields)))
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		x, y := fields[i%len(fields)], fields[(i+1)%len(fields)]
		c.CompressedLen(x)
		c.CompressedLen2(x, y)
	}
}

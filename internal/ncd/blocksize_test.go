package ncd

import (
	"math/rand"
	"testing"
)

// refBitLength is flate's bitLength, kept as the reference: a walk over
// every symbol of freq.
func refBitLength(lens *codeLens, freq []int32) int {
	var total int
	for i, f := range freq {
		total += int(f) * int(lens[i])
	}
	return total
}

// refCodegenFreq is flate's generateCodegen as the kernel ran it before
// block sizing went over used symbols, kept as the reference: it writes
// the literal and offset code lengths out in full, then walks them,
// counting the run-length codes one run at a time.
func refCodegenFreq(litLens, offLens []uint8) [codegenCodeCount]int32 {
	var codegenFreq [codegenCodeCount]int32
	codegen := make([]uint8, len(litLens)+len(offLens)+1)
	copy(codegen, litLens)
	copy(codegen[len(litLens):], offLens)
	codegen[len(litLens)+len(offLens)] = badCode

	size := codegen[0]
	count := 1
	for inIndex := 1; size != badCode; inIndex++ {
		// INVARIANT: We have seen "count" copies of size that have not yet
		// had output generated for them.
		nextSize := codegen[inIndex]
		if nextSize == size {
			count++
			continue
		}
		// We need to generate codegen indicating "count" of size.
		if size != 0 {
			codegenFreq[size]++
			count--
			for count >= 3 {
				n := 6
				if n > count {
					n = count
				}
				codegenFreq[16]++
				count -= n
			}
		} else {
			for count >= 11 {
				n := 138
				if n > count {
					n = count
				}
				codegenFreq[18]++
				count -= n
			}
			if count >= 3 {
				// count >= 3 && count <= 10
				codegenFreq[17]++
				count = 0
			}
		}
		count--
		for ; count >= 0; count-- {
			codegenFreq[size]++
		}
		// Set up invariant for next time through the loop.
		size = nextSize
		count = 1
	}
	return codegenFreq
}

// refBlockSizes sizes a block as flate's writeBlock does, with every
// walk full-width, from histograms that already hold the end-of-block
// marker and any placeholder offset.
func refBlockSizes(litFreq *[maxNumLit]int32, offFreq *[offsetCodeCount]int32) (fixed, dynamic int, cgFreq [codegenCodeCount]int32) {
	numLiterals := maxNumLit
	for litFreq[numLiterals-1] == 0 {
		numLiterals--
	}
	numOffsets := offsetCodeCount
	for offFreq[numOffsets-1] == 0 {
		numOffsets--
	}
	var lit, off, cg huffmanEncoder
	lit.generate(litFreq[:], 15)
	off.generate(offFreq[:], 15)
	var extraBits int
	for code := lengthCodesStart + 8; code < numLiterals; code++ {
		extraBits += int(litFreq[code]) * int(lengthExtraBits[code-lengthCodesStart])
	}
	for code := 4; code < numOffsets; code++ {
		extraBits += int(offFreq[code]) * int(offsetExtraBits[code])
	}
	fixed = 3 + refBitLength(&fixedLiteralLens, litFreq[:]) + refBitLength(&fixedOffsetLens, offFreq[:]) + extraBits

	cgFreq = refCodegenFreq(lit.lens[:numLiterals], off.lens[:numOffsets])
	cg.generate(cgFreq[:], 7)
	numCodegens := len(cgFreq)
	for numCodegens > 4 && cgFreq[codegenOrder[numCodegens-1]] == 0 {
		numCodegens--
	}
	dynamic = 3 + 5 + 5 + 4 + 3*numCodegens +
		refBitLength(&cg.lens, cgFreq[:]) +
		int(cgFreq[16])*2 + int(cgFreq[17])*3 + int(cgFreq[18])*7 +
		refBitLength(&lit.lens, litFreq[:]) +
		refBitLength(&off.lens, offFreq[:]) +
		extraBits
	return fixed, dynamic, cgFreq
}

// checkBlockSizes fails unless blockSizes on d's histograms agrees with
// the full-width reference on the code-length histogram and on both
// sizes.
func checkBlockSizes(t testing.TB, d *deflater) {
	t.Helper()
	lit, off := d.litFreq, d.offFreq
	fixed, dynamic, _ := d.blockSizes()
	wantFixed, wantDynamic, wantCg := refBlockSizes(&d.litFreq, &d.offFreq)
	if d.codegenFreq != wantCg || fixed != wantFixed || dynamic != wantDynamic {
		t.Fatalf("literals %v, offsets %v:\ncodegenFreq %v, fixed %d, dynamic %d\nfull walks  %v, fixed %d, dynamic %d",
			lit, off, d.codegenFreq, fixed, dynamic, wantCg, wantFixed, wantDynamic)
	}
}

// sparseHistogram fills freq like randomHistogram, then clears all but a
// random share of the symbols, so that zero runs of every length the
// code-length code treats apart (under 3, 3–10, 11–138, longer) occur.
func sparseHistogram(rng *rand.Rand, freq []int32) {
	randomHistogram(rng, freq)
	keep := rng.Intn(4)
	for i := range freq {
		if rng.Intn(4) >= keep {
			freq[i] = 0
		}
	}
}

// TestBlockSizingMatchesFullWalks compares blockSizes, which sums over
// the used symbols, with flate's full-width walks on seeded random
// literal and offset histograms, dense and sparse, with and without
// matches.
func TestBlockSizingMatchesFullWalks(t *testing.T) {
	rounds := 20_000
	if testing.Short() {
		rounds = 4_000
	}
	rng := rand.New(rand.NewSource(9))
	d := new(deflater)
	for r := 0; r < rounds; r++ {
		fill := randomHistogram
		if r%2 == 1 {
			fill = sparseHistogram
		}
		fill(rng, d.litFreq[:])
		fill(rng, d.offFreq[:])
		checkBlockSizes(t, d)
	}
}

// FuzzBlockSizing compares blockSizes with the full-width reference on
// histograms decoded from fuzzed bytes: one byte per literal/length
// symbol, then one per offset symbol (missing bytes read as zero). A
// byte below 0x60 is an unused symbol, one below 0xe0 a small count,
// and one above a power of two.
func FuzzBlockSizing(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("GET /ad?udid=f3a9c1d2&zone=7 HTTP/1.1"))
	f.Add(append(make([]byte, 270), 0xe3, 0xff, 0x70, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x61, 0x61, 0x61, 0x61, 0xf0))
	d := new(deflater)
	f.Fuzz(func(t *testing.T, data []byte) {
		decode := func(b byte) int32 {
			switch {
			case b < 0x60:
				return 0
			case b < 0xe0:
				return int32(b&0x0f) + 1
			}
			return 1 << ((b & 0x1f) % 21)
		}
		clear(d.litFreq[:])
		clear(d.offFreq[:])
		for i, b := range data[:min(len(data), maxNumLit+offsetCodeCount)] {
			if i < maxNumLit {
				d.litFreq[i] = decode(b)
			} else {
				d.offFreq[i-maxNumLit] = decode(b)
			}
		}
		checkBlockSizes(t, d)
	})
}

package ncd

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// huffmanAlphabets are the three (alphabet size, maxBits) pairs emitBlock
// builds codes for: literal/length, offset and code-length.
var huffmanAlphabets = []struct {
	name    string
	size    int
	maxBits int32
}{
	{"literal", maxNumLit, 15},
	{"offset", offsetCodeCount, 15},
	{"codegen", codegenCodeCount, 7},
}

// refCodeLens is generate as flate writes it, kept as the reference:
// sort the used symbols by (freq, literal), then let package-merge
// (bitCounts) choose the bit counts.
func refCodeLens(freq []int32, maxBits int32) codeLens {
	var lens codeLens
	var list []literalNode
	for i, f := range freq {
		if f != 0 {
			list = append(list, literalNode{uint16(i), f})
		}
	}
	if len(list) <= 2 {
		for _, node := range list {
			lens[node.literal] = 1
		}
		return lens
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].freq == list[j].freq {
			return list[i].literal < list[j].literal
		}
		return list[i].freq < list[j].freq
	})
	list = append(list, literalNode{})[:len(list)] // room for bitCounts' sentinel
	var h huffmanEncoder
	for n, bits := range h.bitCounts(list, maxBits) {
		if n == 0 || bits == 0 {
			continue
		}
		for _, node := range list[len(list)-int(bits):] {
			lens[node.literal] = uint8(n)
		}
		list = list[:len(list)-int(bits)]
	}
	return lens
}

// checkCodeLens fails unless generate on h agrees with refCodeLens on
// every symbol of freq.
func checkCodeLens(t testing.TB, h *huffmanEncoder, what string, freq []int32, maxBits int32) {
	t.Helper()
	h.generate(freq, maxBits)
	want := refCodeLens(freq, maxBits)
	for i := range freq {
		if h.lens[i] != want[i] {
			t.Fatalf("%s, maxBits %d, freq %v: symbol %d gets %d bits, package-merge gives %d",
				what, maxBits, freq, i, h.lens[i], want[i])
		}
	}
}

// randomHistogram fills freq with one of several shapes: flat small
// counts full of ties, counts above countSortCap, powers of two and
// Fibonacci numbers (skewed enough to outgrow maxBits), and a
// geometric decay like the offset codes of repetitive input. About a
// third of the symbols are unused.
func randomHistogram(rng *rand.Rand, freq []int32) {
	shape := rng.Intn(5)
	fib := [31]int32{1, 1}
	for i := 2; i < len(fib); i++ {
		fib[i] = fib[i-1] + fib[i-2]
	}
	for i := range freq {
		if rng.Intn(3) == 0 {
			freq[i] = 0
			continue
		}
		switch shape {
		case 0:
			freq[i] = 1 + rng.Int31n(1+rng.Int31n(8))
		case 1:
			freq[i] = 1 + rng.Int31n(40_000)
		case 2:
			freq[i] = 1 << rng.Intn(21)
		case 3:
			freq[i] = fib[rng.Intn(len(fib))]
		case 4:
			freq[i] = 1 + int32(4096>>min(i, 12)) + rng.Int31n(3)
		}
	}
}

// TestHuffmanLengthsMatchPackageMerge compares every code length
// generate returns with the sort.Slice + bitCounts reference on seeded
// random histograms of all three alphabets, and checks that both the
// two-queue path and the package-merge fallback, and both sorts, ran.
func TestHuffmanLengthsMatchPackageMerge(t *testing.T) {
	rounds := 20_000
	if testing.Short() {
		rounds = 4_000
	}
	rng := rand.New(rand.NewSource(5))
	for _, a := range huffmanAlphabets {
		var h huffmanEncoder
		freq := make([]int32, a.size)
		var counted, keyed int
		for r := 0; r < rounds; r++ {
			randomHistogram(rng, freq)
			checkCodeLens(t, &h, a.name, freq, a.maxBits)
			if slices.Max(freq) < countSortCap {
				counted++
			} else {
				keyed++
			}
		}
		fallbacks := h.packageMerges
		t.Logf("%s: %d histograms, %d through package-merge, %d counting-sorted", a.name, rounds, fallbacks, counted)
		if fallbacks == 0 || fallbacks == rounds {
			t.Errorf("%s: package-merge ran on %d of %d histograms; want both paths taken", a.name, fallbacks, rounds)
		}
		if counted == 0 || keyed == 0 {
			t.Errorf("%s: %d counting-sorted, %d key-sorted; want both sorts taken", a.name, counted, keyed)
		}
	}
}

// FuzzHuffmanLengths compares generate with the reference on histograms
// decoded from fuzzed bytes: the first byte picks the alphabet, each
// further byte one symbol's frequency, small (ties, zeros) below 0x80
// and a power of two above.
func FuzzHuffmanLengths(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89})
	f.Add([]byte{1, 0x80, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8a, 0x8b, 0x8c, 0x8d, 0x8e, 0x8f, 0x90, 0x91})
	f.Add([]byte{2, 1, 1, 2, 4, 8, 16, 32, 64, 127, 0x88})
	f.Add([]byte{0, 7, 7, 7, 7, 0, 7, 7, 3, 3, 3})
	var h huffmanEncoder
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		a := huffmanAlphabets[int(data[0])%len(huffmanAlphabets)]
		freq := make([]int32, a.size)
		for i, b := range data[1:min(len(data), 1+a.size)] {
			if b < 0x80 {
				freq[i] = int32(b)
			} else {
				freq[i] = 1 << ((b & 0x7f) % 21)
			}
		}
		checkCodeLens(t, &h, a.name, freq, a.maxBits)
	})
}

// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// This file ports the BestCompression path of Go 1.24's compress/flate
// (deflate.go, huffman_bit_writer.go, huffman_code.go, token.go) down to
// what decides the length of its output: the lazy-matching LZ77 loop,
// the window slide, per-block token histograms, length-limited Huffman
// code lengths, the code-length (codegen) encoding and the
// stored/fixed/dynamic block choice. Nothing is encoded; the writer
// counts the bits flate would emit. The license is in LICENSE next to
// this file.
//
// It departs from flate in six ways, none of which changes a token,
// a code length or a block's size:
//
//   - reset does not clear the 640 KB of hash tables (see reset);
//   - a block keeps its literal/length and offset histograms instead of
//     its token list, which is all flate reads the tokens for;
//   - matchLen compares eight bytes at a time;
//   - the symbols are sorted by (frequency, symbol) with a counting
//     sort, or with slices.Sort on packed keys when a frequency is
//     large, instead of sort.Sort: flate's order is a total order on
//     unique keys, so every correct sort yields it (see sortByFreq);
//   - the code lengths come from a plain two-queue Huffman tree, and
//     flate's package-merge (bitCounts) runs only when that tree is
//     deeper than the limit. Lengths follow from the sorted order and
//     the count of leaves per depth; with ties broken as bitCounts
//     breaks them, the two-queue counts equal bitCounts' whenever the
//     tree fits (see huffmanBitCounts);
//   - a block is sized over the symbols it uses, not over the whole
//     alphabet, and the zero runs of the code-length encoding are
//     counted by arithmetic (see blockSizes).

package ncd

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

const (
	logWindowSize = 15
	windowSize    = 1 << logWindowSize
	windowMask    = windowSize - 1

	baseMatchLength = 3   // the smallest match length per RFC 1951 3.2.5
	minMatchLength  = 4   // the smallest match length the compressor emits
	maxMatchLength  = 258 // the largest match length
	baseMatchOffset = 1   // the smallest match offset

	// The maximum number of tokens flate puts into a single block.
	maxFlateBlockTokens = 1 << 14
	maxStoreBlockSize   = 65535
	hashBits            = 17
	hashSize            = 1 << hashBits
	hashMask            = (1 << hashBits) - 1
	maxHashOffset       = 1 << 24

	// BestCompression's row of flate's level table. Its fastSkipHashing
	// is skipNever, so the paths for the faster levels are left out.
	levelGood  = 32
	levelLazy  = 258
	levelNice  = 258
	levelChain = 4096

	maxNumLit        = 286
	offsetCodeCount  = 30
	endBlockMarker   = 256
	lengthCodesStart = 257
	codegenCodeCount = 19
	badCode          = 255
	maxBitsLimit     = 16
)

// deflater is one compression stream's state. It is large (the hash
// tables are 640 KB) and meant to be reused through reset.
type deflater struct {
	// hashHead[hashValue] holds the largest inputIndex+hashOffset with
	// that hash value; hashPrev[index&windowMask] the previous one.
	chainHead  int
	hashHead   [hashSize]uint32
	hashPrev   [windowSize]uint32
	hashOffset int

	// Unprocessed input is window[index:windowEnd].
	window        [2 * windowSize]byte
	index         int
	windowEnd     int
	blockStart    int  // window index where the current block starts
	byteAvailable bool // if true, window[index-1] is still to be emitted
	sync          bool // flushing at close

	length         int
	offset         int
	maxInsertIndex int

	// The current block's tokens, as flate's indexTokens would count them.
	ntokens int
	litFreq [maxNumLit]int32
	offFreq [offsetCodeCount]int32

	lit, off, cg huffmanEncoder
	codegenFreq  [codegenCodeCount]int32

	nbits int // bits emitted so far
}

// reset starts a new stream, as flate's Writer.Reset does, except that
// the hash tables keep their contents. flate zeroes them so that every
// entry reads as position 0 − hashOffset = −1, which both match paths
// treat as "no earlier position" (deflate requires a chain head ≥ 0,
// findMatch stops at any index < 0). Moving hashOffset past every value
// stored so far — all are below hashOffset + windowEnd — makes every
// stale entry read as a negative index instead, with the same effect,
// and fillDeflate's rebase maps every entry ≤ hashOffset−1 to 0, so a
// stale entry also rebases as a cleared one would. The tables are
// cleared for real only when hashOffset would pass maxHashOffset, which
// keeps every stored value inside the range flate itself uses.
func (d *deflater) reset() {
	if next := d.hashOffset + d.windowEnd + 1; next <= maxHashOffset {
		d.hashOffset = next
	} else {
		clear(d.hashHead[:])
		clear(d.hashPrev[:])
		d.hashOffset = 1
	}
	d.chainHead = -1
	d.index, d.windowEnd = 0, 0
	d.blockStart, d.byteAvailable = 0, false
	d.sync = false
	d.length = minMatchLength - 1
	d.offset = 0
	d.maxInsertIndex = 0
	d.nbits = 0
}

// compressedLen starts a stream, writes p and q and closes it: the
// length of flate's NewWriter, Write(p), Write(q), Close.
func (d *deflater) compressedLen(p, q []byte) int {
	d.reset()
	d.write(p)
	d.write(q)
	return d.close()
}

// write is flate's Writer.Write.
func (d *deflater) write(b []byte) {
	for len(b) > 0 {
		d.deflate()
		b = b[d.fillDeflate(b):]
	}
}

// close is flate's Writer.Close; it returns the stream's length in
// bytes.
func (d *deflater) close() int {
	d.sync = true
	d.deflate()
	d.storedHeader()
	return d.nbits / 8
}

func (d *deflater) fillDeflate(b []byte) int {
	if d.index >= 2*windowSize-(minMatchLength+maxMatchLength) {
		// shift the window by windowSize
		copy(d.window[:], d.window[windowSize:2*windowSize])
		d.index -= windowSize
		d.windowEnd -= windowSize
		if d.blockStart >= windowSize {
			d.blockStart -= windowSize
		} else {
			d.blockStart = math.MaxInt32
		}
		d.hashOffset += windowSize
		if d.hashOffset > maxHashOffset {
			delta := d.hashOffset - 1
			d.hashOffset -= delta
			d.chainHead -= delta
			for i, v := range d.hashPrev[:] {
				if int(v) > delta {
					d.hashPrev[i] = uint32(int(v) - delta)
				} else {
					d.hashPrev[i] = 0
				}
			}
			for i, v := range d.hashHead[:] {
				if int(v) > delta {
					d.hashHead[i] = uint32(int(v) - delta)
				} else {
					d.hashHead[i] = 0
				}
			}
		}
	}
	n := copy(d.window[d.windowEnd:], b)
	d.windowEnd += n
	return n
}

// writeBlock emits the current block, which ends at window index index.
func (d *deflater) writeBlock(index int) {
	if index > 0 {
		var input []byte
		if d.blockStart <= index {
			input = d.window[d.blockStart:index]
		}
		d.blockStart = index
		d.emitBlock(input)
	}
	d.ntokens = 0
	clear(d.litFreq[:])
	clear(d.offFreq[:])
}

// findMatch tries to find a match starting at pos whose length is
// greater than prevLength, looking at no more than levelChain positions.
func (d *deflater) findMatch(pos int, prevHead int, prevLength int, lookahead int) (length, offset int, ok bool) {
	minMatchLook := maxMatchLength
	if lookahead < minMatchLook {
		minMatchLook = lookahead
	}

	win := d.window[0 : pos+minMatchLook]

	// We quit when we get a match that's at least nice long
	nice := len(win) - pos
	if levelNice < nice {
		nice = levelNice
	}

	// If we've got a match that's good enough, only look in 1/4 the chain.
	tries := levelChain
	length = prevLength
	if length >= levelGood {
		tries >>= 2
	}

	wEnd := win[pos+length]
	wPos := win[pos:]
	minIndex := pos - windowSize

	for i := prevHead; tries > 0; tries-- {
		if wEnd == win[i+length] {
			n := matchLen(win[i:], wPos, minMatchLook)

			if n > length && (n > minMatchLength || pos-i <= 4096) {
				length = n
				offset = pos - i
				ok = true
				if n >= nice {
					// The match is good enough that we don't try to find a better one.
					break
				}
				wEnd = win[pos+n]
			}
		}
		if i == minIndex {
			// hashPrev[i & windowMask] has already been overwritten, so stop now.
			break
		}
		i = int(d.hashPrev[i&windowMask]) - d.hashOffset
		if i < minIndex || i < 0 {
			break
		}
	}
	return
}

const hashmul = 0x1e35a7bd

// hash4 returns a hash representation of the first 4 bytes of b.
func hash4(b []byte) uint32 {
	return ((uint32(b[3]) | uint32(b[2])<<8 | uint32(b[1])<<16 | uint32(b[0])<<24) * hashmul) >> (32 - hashBits)
}

// matchLen returns the number of matching bytes in a and b up to length
// max. Both slices must be at least max bytes long.
func matchLen(a, b []byte, max int) int {
	a, b = a[:max], b[:max]
	n := 0
	for ; n+8 <= max; n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for ; n < max; n++ {
		if a[n] != b[n] {
			return n
		}
	}
	return max
}

func (d *deflater) deflate() {
	if d.windowEnd-d.index < minMatchLength+maxMatchLength && !d.sync {
		return
	}

	d.maxInsertIndex = d.windowEnd - (minMatchLength - 1)

	for {
		lookahead := d.windowEnd - d.index
		if lookahead < minMatchLength+maxMatchLength {
			if !d.sync {
				return
			}
			if lookahead == 0 {
				// Flush current output block if any.
				if d.byteAvailable {
					// There is still one pending token that needs to be flushed
					d.literal(d.window[d.index-1])
					d.byteAvailable = false
				}
				if d.ntokens > 0 {
					d.writeBlock(d.index)
				}
				return
			}
		}
		if d.index < d.maxInsertIndex {
			// Update the hash
			hash := hash4(d.window[d.index : d.index+minMatchLength])
			hh := &d.hashHead[hash&hashMask]
			d.chainHead = int(*hh)
			d.hashPrev[d.index&windowMask] = uint32(d.chainHead)
			*hh = uint32(d.index + d.hashOffset)
		}
		prevLength := d.length
		prevOffset := d.offset
		d.length = minMatchLength - 1
		d.offset = 0
		minIndex := d.index - windowSize
		if minIndex < 0 {
			minIndex = 0
		}

		if d.chainHead-d.hashOffset >= minIndex && lookahead > prevLength && prevLength < levelLazy {
			if newLength, newOffset, ok := d.findMatch(d.index, d.chainHead-d.hashOffset, minMatchLength-1, lookahead); ok {
				d.length = newLength
				d.offset = newOffset
			}
		}
		if prevLength >= minMatchLength && d.length <= prevLength {
			// There was a match at the previous step, and the current match is
			// not better. Output the previous match.
			d.match(prevLength, prevOffset)
			// Insert in the hash table all strings up to the end of the match.
			// index and index-1 are already inserted. If there is not enough
			// lookahead, the last two strings are not inserted into the hash
			// table.
			newIndex := d.index + prevLength - 1
			index := d.index
			for index++; index < newIndex; index++ {
				if index < d.maxInsertIndex {
					hash := hash4(d.window[index : index+minMatchLength])
					// Get previous value with the same hash.
					// Our chain should point to the previous value.
					hh := &d.hashHead[hash&hashMask]
					d.hashPrev[index&windowMask] = *hh
					// Set the head of the hash chain to us.
					*hh = uint32(index + d.hashOffset)
				}
			}
			d.index = index
			d.byteAvailable = false
			d.length = minMatchLength - 1
			if d.ntokens == maxFlateBlockTokens {
				// The block includes the current character
				d.writeBlock(d.index)
			}
		} else {
			if d.byteAvailable {
				i := d.index - 1
				d.literal(d.window[i])
				if d.ntokens == maxFlateBlockTokens {
					d.writeBlock(i + 1)
				}
			}
			d.index++
			d.byteAvailable = true
		}
	}
}

// literal counts a literal token.
func (d *deflater) literal(c byte) {
	d.litFreq[c]++
	d.ntokens++
}

// match counts a <length, offset> token.
func (d *deflater) match(length, offset int) {
	d.litFreq[lengthCodesStart+lengthCodes[length-baseMatchLength]]++
	d.offFreq[offsetCode(uint32(offset-baseMatchOffset))]++
	d.ntokens++
}

// storedHeader counts flate's writeStoredHeader: three bits, a flush to
// the byte boundary, and the 16-bit length and its complement.
func (d *deflater) storedHeader() {
	d.nbits = (d.nbits+3+7)&^7 + 32
}

// emitBlock counts flate's huffmanBitWriter.writeBlock over the current
// block's histograms: the smallest of the fixed-Huffman, dynamic-Huffman
// and (when input is non-nil and short enough) stored encodings. The
// sizes it compares are flate's, including its one overcount: a block
// without matches gets a placeholder offset count that is never written.
func (d *deflater) emitBlock(input []byte) {
	fixed, dynamic, placeholder := d.blockSizes()
	size, placeholderBits := fixed, int(fixedOffsetLens[0])
	if dynamic < size {
		size, placeholderBits = dynamic, int(d.off.lens[0])
	}

	if input != nil && len(input) <= maxStoreBlockSize && (len(input)+5)*8 < size {
		d.storedHeader()
		d.nbits += 8 * len(input)
		return
	}
	if placeholder {
		size -= placeholderBits
	}
	d.nbits += size
}

// blockSizes counts the end-of-block marker, adds the placeholder offset
// when the block has no matches (and reports that it did), builds the
// block's codes and returns its fixed- and dynamic-Huffman sizes in
// bits.
//
// flate sizes a block by walking every literal/length and offset
// symbol. Here every sum runs over the symbols generate found in use;
// the unused ones add nothing to any sum and only lengthen the zero
// runs, which generateCodegen counts by arithmetic. flate's full-width
// walks are kept in blocksize_test.go as the reference.
func (d *deflater) blockSizes() (fixed, dynamic int, placeholder bool) {
	d.litFreq[endBlockMarker]++
	if placeholder = d.offFreq == [offsetCodeCount]int32{}; placeholder {
		d.offFreq[0] = 1
	}
	d.lit.generate(d.litFreq[:], 15)
	d.off.generate(d.offFreq[:], 15)

	// flate adds the extra bits to every candidate size only when the
	// block could be stored; they shift the fixed and dynamic sizes
	// alike, so counting them always picks the same encoding.
	var extraBits int
	for _, sym := range d.lit.used {
		if sym >= lengthCodesStart+8 {
			extraBits += int(d.litFreq[sym]) * int(lengthExtraBits[sym-lengthCodesStart])
		}
	}
	for _, sym := range d.off.used {
		extraBits += int(d.offFreq[sym]) * int(offsetExtraBits[sym])
	}

	fixed = 3 + d.lit.bitLength(&fixedLiteralLens, d.litFreq[:]) + d.off.bitLength(&fixedOffsetLens, d.offFreq[:]) + extraBits
	d.generateCodegen()
	d.cg.generate(d.codegenFreq[:], 7)
	return fixed, d.dynamicSize(extraBits), placeholder
}

// generateCodegen counts the RFC 1951 3.2.7 run-length encoding of the
// concatenated literal and offset code lengths into codegenFreq. The
// concatenation runs to the last used literal and then to the last used
// offset, and a symbol's length is non-zero exactly when it is used, so
// the used symbols mark every non-zero entry and the gaps between them
// are the zero runs.
func (d *deflater) generateCodegen() {
	clear(d.codegenFreq[:])
	numLiterals := int(d.lit.used[len(d.lit.used)-1]) + 1
	var size uint8      // the current run's code length
	count, next := 0, 0 // the run's length, and the position after it
	for part, h := range [2]*huffmanEncoder{&d.lit, &d.off} {
		base := part * numLiterals
		for _, sym := range h.used {
			pos, l := base+int(sym), h.lens[sym]
			if pos == next && l == size {
				count++
			} else {
				d.countRun(size, count)
				d.countZeros(pos - next)
				size, count = l, 1
			}
			next = pos + 1
		}
	}
	d.countRun(size, count)
}

// countRun counts the codes flate emits for count repeats of the
// non-zero code length size: the length once, then repeat codes 16 of
// 3–6 each, and what is left as single lengths. A count of 0 counts
// nothing.
func (d *deflater) countRun(size uint8, count int) {
	if count < 4 {
		d.codegenFreq[size] += int32(count)
		return
	}
	rest := uint(count - 1)
	repeats, singles := rest/6, rest%6
	if singles >= 3 {
		repeats, singles = repeats+1, 0
	}
	d.codegenFreq[16] += int32(repeats)
	d.codegenFreq[size] += int32(1 + singles)
}

// countZeros counts the codes flate emits for a run of count zero code
// lengths: codes 18 of 11–138 each, then one 17 of 3–10 or what is left
// as single zeros.
func (d *deflater) countZeros(count int) {
	if count < 3 {
		d.codegenFreq[0] += int32(count)
		return
	}
	repeats, rest := uint(count)/138, uint(count)%138
	switch {
	case rest >= 11:
		repeats++
	case rest >= 3:
		d.codegenFreq[17]++
	default:
		d.codegenFreq[0] += int32(rest)
	}
	d.codegenFreq[18] += int32(repeats)
}

// dynamicSize returns the size of the dynamically encoded block in bits.
func (d *deflater) dynamicSize(extraBits int) int {
	numCodegens := len(d.codegenFreq)
	for numCodegens > 4 && d.codegenFreq[codegenOrder[numCodegens-1]] == 0 {
		numCodegens--
	}
	header := 3 + 5 + 5 + 4 + (3 * numCodegens) +
		d.cg.bitLength(&d.cg.lens, d.codegenFreq[:]) +
		int(d.codegenFreq[16])*2 +
		int(d.codegenFreq[17])*3 +
		int(d.codegenFreq[18])*7
	return header +
		d.lit.bitLength(&d.lit.lens, d.litFreq[:]) +
		d.off.bitLength(&d.off.lens, d.offFreq[:]) +
		extraBits
}

// codeLens holds a Huffman code's bit length per symbol; 0 marks an
// unused symbol.
type codeLens [maxNumLit]uint8

// bitLength returns the bits freq costs under the code lengths lens,
// summed over the symbols the last generate found in use: the symbols
// with a non-zero count in freq, when generate was given freq.
func (h *huffmanEncoder) bitLength(lens *codeLens, freq []int32) int {
	var total int
	for _, sym := range h.used {
		total += int(freq[sym]) * int(lens[sym])
	}
	return total
}

// fixedLiteralLens and fixedOffsetLens are the RFC 1951 3.2.6 fixed code.
var fixedLiteralLens, fixedOffsetLens = func() (lit, off codeLens) {
	for ch := range lit {
		switch {
		case ch < 144:
			lit[ch] = 8
		case ch < 256:
			lit[ch] = 9
		case ch < 280:
			lit[ch] = 7
		default:
			lit[ch] = 8
		}
	}
	for ch := 0; ch < offsetCodeCount; ch++ {
		off[ch] = 5
	}
	return lit, off
}()

// huffmanEncoder builds flate's length-limited Huffman code lengths.
// Which symbol gets which length depends on the frequency sort's
// tie-break (by symbol), so it is kept exactly; the codes themselves
// do not change a length and are not built.
type huffmanEncoder struct {
	lens     codeLens
	nodes    [maxNumLit + 1]literalNode // used symbols by (freq, literal), and bitCounts' sentinel
	bitCount [17]int32

	// used lists the symbols the last generate was given a non-zero
	// frequency for, in symbol order; it aliases syms.
	used []uint16

	// Scratch for generate, kept so that a call allocates nothing.
	syms   [maxNumLit]uint16    // the used symbols, in symbol order
	bucket [countSortCap]uint16 // counting sort's start index per frequency
	keys   [maxNumLit]uint64    // freq<<16 | literal, for slices.Sort
	weight [maxNumLit]int32     // internal node weights, then depths
	parent [2 * maxNumLit]int16 // each node's parent, an internal node index

	// packageMerges counts the generate calls whose Huffman tree was
	// deeper than maxBits, so that bitCounts had to limit it.
	packageMerges int
}

// countSortCap bounds the frequencies sortByFreq sorts by counting. A
// counting sort pays one bucket per frequency up to the largest; above
// the cap, sorting the packed keys costs less.
const countSortCap = 256

type literalNode struct {
	literal uint16
	freq    int32
}

// A levelInfo describes the state of the constructed tree for a given depth.
type levelInfo struct {
	// Our level.  for better printing
	level int32

	// The frequency of the last node at this level
	lastFreq int32

	// The frequency of the next character to add to this level
	nextCharFreq int32

	// The frequency of the next pair (from level below) to add to this level.
	// Only valid if the "needed" value of the next lower level is 0.
	nextPairFreq int32

	// The number of chains remaining to generate for this level before moving
	// up to the next level
	needed int32
}

func maxNode() literalNode { return literalNode{math.MaxUint16, math.MaxInt32} }

// bitCounts computes the number of literals assigned to each bit size in the Huffman encoding.
// It is only called when list.length >= 3.
// The cases of 0, 1, and 2 literals are handled by special case code.
//
// list is an array of the literals with non-zero frequencies
// and their associated frequencies. The array is in order of increasing
// frequency and has as its last element a special element with frequency
// MaxInt32.
//
// maxBits is the maximum number of bits that should be used to encode any literal.
// It must be less than 16.
//
// bitCounts returns an integer slice in which slice[i] indicates the number of literals
// that should be encoded in i bits.
func (h *huffmanEncoder) bitCounts(list []literalNode, maxBits int32) []int32 {
	n := int32(len(list))
	list = list[0 : n+1]
	list[n] = maxNode()

	// The tree can't have greater depth than n - 1, no matter what. This
	// saves a little bit of work in some small cases
	if maxBits > n-1 {
		maxBits = n - 1
	}

	// Create information about each of the levels.
	// A bogus "Level 0" whose sole purpose is so that
	// level1.prev.needed==0.  This makes level1.nextPairFreq
	// be a legitimate value that never gets chosen.
	var levels [maxBitsLimit]levelInfo
	// leafCounts[i] counts the number of literals at the left
	// of ancestors of the rightmost node at level i.
	// leafCounts[i][j] is the number of literals at the left
	// of the level j ancestor.
	var leafCounts [maxBitsLimit][maxBitsLimit]int32

	for level := int32(1); level <= maxBits; level++ {
		// For every level, the first two items are the first two characters.
		// We initialize the levels as if we had already figured this out.
		levels[level] = levelInfo{
			level:        level,
			lastFreq:     list[1].freq,
			nextCharFreq: list[2].freq,
			nextPairFreq: list[0].freq + list[1].freq,
		}
		leafCounts[level][level] = 2
		if level == 1 {
			levels[level].nextPairFreq = math.MaxInt32
		}
	}

	// We need a total of 2*n - 2 items at top level and have already generated 2.
	levels[maxBits].needed = 2*n - 4

	level := maxBits
	for {
		l := &levels[level]
		if l.nextPairFreq == math.MaxInt32 && l.nextCharFreq == math.MaxInt32 {
			// We've run out of both leaves and pairs.
			// End all calculations for this level.
			// To make sure we never come back to this level or any lower level,
			// set nextPairFreq impossibly large.
			l.needed = 0
			levels[level+1].nextPairFreq = math.MaxInt32
			level++
			continue
		}

		prevFreq := l.lastFreq
		if l.nextCharFreq < l.nextPairFreq {
			// The next item on this row is a leaf node.
			n := leafCounts[level][level] + 1
			l.lastFreq = l.nextCharFreq
			// Lower leafCounts are the same of the previous node.
			leafCounts[level][level] = n
			l.nextCharFreq = list[n].freq
		} else {
			// The next item on this row is a pair from the previous row.
			// nextPairFreq isn't valid until we generate two
			// more values in the level below
			l.lastFreq = l.nextPairFreq
			// Take leaf counts from the lower level, except counts[level] remains the same.
			copy(leafCounts[level][:level], leafCounts[level-1][:level])
			levels[l.level-1].needed = 2
		}

		if l.needed--; l.needed == 0 {
			// We've done everything we need to do for this level.
			// Continue calculating one level up. Fill in nextPairFreq
			// of that level with the sum of the two nodes we've just calculated on
			// this level.
			if l.level == maxBits {
				// All done!
				break
			}
			levels[l.level+1].nextPairFreq = prevFreq + l.lastFreq
			level++
		} else {
			// If we stole from below, move down temporarily to replenish it.
			for levels[level-1].needed > 0 {
				level--
			}
		}
	}

	bitCount := h.bitCount[:maxBits+1]
	bits := 1
	counts := &leafCounts[maxBits]
	for level := maxBits; level > 0; level-- {
		// chain.leafCount gives the number of literals requiring at least "bits"
		// bits to encode.
		bitCount[bits] = counts[level] - counts[level-1]
		bits++
	}
	return bitCount
}

// generate sets lens to the minimum code lengths for freq, where
// freq[i] is the frequency of symbol i, using at most maxBits bits.
func (h *huffmanEncoder) generate(freq []int32, maxBits int32) {
	clear(h.lens[:len(freq)])
	// Gather the used symbols without a branch per symbol: each symbol is
	// written to the next free slot, which only a non-zero frequency keeps.
	count := 0
	var maxFreq int32
	for i, f := range freq {
		h.syms[count] = uint16(i)
		count += int(uint32(-f) >> 31) // frequencies are never negative
		maxFreq = max(maxFreq, f)
	}
	syms := h.syms[:count]
	h.used = syms
	if count <= 2 {
		// Handle the small cases here, because they are awkward for the general case code. With
		// two or fewer literals, everything has bit length 1.
		for _, sym := range syms {
			h.lens[sym] = 1
		}
		return
	}
	list := h.sortByFreq(freq, syms, maxFreq)

	bitCount, ok := h.huffmanBitCounts(list, maxBits)
	if !ok {
		h.packageMerges++
		bitCount = h.bitCounts(list, maxBits)
	}
	// Assign the bit counts from the most frequent literals down: the
	// last bitCount[n] literals of list get n bits.
	for n, bits := range bitCount {
		if n == 0 || bits == 0 {
			continue
		}
		for _, node := range list[len(list)-int(bits):] {
			h.lens[node.literal] = uint8(n)
		}
		list = list[0 : len(list)-int(bits)]
	}
}

// sortByFreq returns the used symbols syms, given in symbol order, with
// their frequencies, ordered by frequency and then by symbol as flate's
// sort orders them. The largest frequency is maxFreq.
func (h *huffmanEncoder) sortByFreq(freq []int32, syms []uint16, maxFreq int32) []literalNode {
	list := h.nodes[:len(syms)]
	if maxFreq < countSortCap {
		// A counting sort is stable, so equal frequencies stay in symbol
		// order.
		bucket := h.bucket[:maxFreq+1]
		clear(bucket)
		for _, sym := range syms {
			bucket[freq[sym]]++
		}
		var start uint16
		for f, n := range bucket {
			bucket[f], start = start, start+n
		}
		for _, sym := range syms {
			f := freq[sym]
			list[bucket[f]] = literalNode{sym, f}
			bucket[f]++
		}
		return list
	}
	// The keys are unique, so any correct sort puts them in flate's order.
	keys := h.keys[:len(syms)]
	for j, sym := range syms {
		keys[j] = uint64(freq[sym])<<16 | uint64(sym)
	}
	slices.Sort(keys)
	for j, k := range keys {
		list[j] = literalNode{uint16(k), int32(k >> 16)}
	}
	return list
}

// huffmanBitCounts builds the Huffman tree of list, which holds at
// least three nodes sorted as sortByFreq sorts them, with no depth
// limit, by the two-queue method: leaves wait in list order, internal
// nodes in the order they are made, and each step joins the two
// lightest nodes at the queues' heads. A tie goes to the internal node,
// as bitCounts takes a pair unless the leaf is strictly lighter. It
// returns how many leaves sit at each depth, in bitCounts' form, or
// false when a leaf is deeper than maxBits.
//
// When the tree fits, that histogram is the one bitCounts returns for
// the same list. This is checked against bitCounts, ties and all, by
// TestHuffmanLengthsMatchPackageMerge and FuzzHuffmanLengths, not
// proven.
func (h *huffmanEncoder) huffmanBitCounts(list []literalNode, maxBits int32) ([]int32, bool) {
	n := len(list)
	// Leaf i is node i; internal node k is node n+k and weighs weight[k].
	weight, parent := h.weight[:n-1], h.parent[:2*n-1]
	leaf, next := 0, 0 // the heads of the two queues
	for k := range weight {
		var w int32
		for range 2 {
			if leaf < n && (next == k || list[leaf].freq < weight[next]) {
				w += list[leaf].freq
				parent[leaf] = int16(k)
				leaf++
			} else {
				w += weight[next]
				parent[n+next] = int16(k)
				next++
			}
		}
		weight[k] = w
	}

	// Every parent is made after its children, so one pass from the root
	// (node n+(n-2), at depth 0) down overwrites each weight with a depth.
	depth := weight
	depth[n-2] = 0
	for k := n - 3; k >= 0; k-- {
		depth[k] = depth[parent[n+k]] + 1
	}
	bitCount := h.bitCount[:maxBits+1]
	clear(bitCount)
	for _, p := range parent[:n] {
		d := depth[p] + 1
		if d > maxBits {
			return nil, false
		}
		bitCount[d]++
	}
	return bitCount, true
}

// The number of extra bits needed by length code X - LENGTH_CODES_START.
var lengthExtraBits = []int8{
	/* 257 */ 0, 0, 0,
	/* 260 */ 0, 0, 0, 0, 0, 1, 1, 1, 1, 2,
	/* 270 */ 2, 2, 2, 3, 3, 3, 3, 4, 4, 4,
	/* 280 */ 4, 5, 5, 5, 5, 0,
}

// offset code word extra bits.
var offsetExtraBits = []int8{
	0, 0, 0, 0, 1, 1, 2, 2, 3, 3,
	4, 4, 5, 5, 6, 6, 7, 7, 8, 8,
	9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
}

// The odd order in which the codegen code sizes are written.
var codegenOrder = []uint32{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// The length code for length X (MIN_MATCH_LENGTH <= X <= MAX_MATCH_LENGTH)
// is lengthCodes[length - MIN_MATCH_LENGTH]
var lengthCodes = [...]uint32{
	0, 1, 2, 3, 4, 5, 6, 7, 8, 8,
	9, 9, 10, 10, 11, 11, 12, 12, 12, 12,
	13, 13, 13, 13, 14, 14, 14, 14, 15, 15,
	15, 15, 16, 16, 16, 16, 16, 16, 16, 16,
	17, 17, 17, 17, 17, 17, 17, 17, 18, 18,
	18, 18, 18, 18, 18, 18, 19, 19, 19, 19,
	19, 19, 19, 19, 20, 20, 20, 20, 20, 20,
	20, 20, 20, 20, 20, 20, 20, 20, 20, 20,
	21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
	21, 21, 21, 21, 21, 21, 22, 22, 22, 22,
	22, 22, 22, 22, 22, 22, 22, 22, 22, 22,
	22, 22, 23, 23, 23, 23, 23, 23, 23, 23,
	23, 23, 23, 23, 23, 23, 23, 23, 24, 24,
	24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
	24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
	24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
	25, 25, 25, 25, 25, 25, 25, 25, 25, 25,
	25, 25, 25, 25, 25, 25, 25, 25, 25, 25,
	25, 25, 25, 25, 25, 25, 25, 25, 25, 25,
	25, 25, 26, 26, 26, 26, 26, 26, 26, 26,
	26, 26, 26, 26, 26, 26, 26, 26, 26, 26,
	26, 26, 26, 26, 26, 26, 26, 26, 26, 26,
	26, 26, 26, 26, 27, 27, 27, 27, 27, 27,
	27, 27, 27, 27, 27, 27, 27, 27, 27, 27,
	27, 27, 27, 27, 27, 27, 27, 27, 27, 27,
	27, 27, 27, 27, 27, 28,
}

var offsetCodes = [...]uint32{
	0, 1, 2, 3, 4, 4, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7,
	8, 8, 8, 8, 8, 8, 8, 8, 9, 9, 9, 9, 9, 9, 9, 9,
	10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
	11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11,
	12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12,
	12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12,
	13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13,
	13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
}

// Returns the offset code corresponding to a specific offset.
func offsetCode(off uint32) uint32 {
	if off < uint32(len(offsetCodes)) {
		return offsetCodes[off]
	}
	if off>>7 < uint32(len(offsetCodes)) {
		return offsetCodes[off>>7] + 14
	}
	return offsetCodes[off>>14] + 28
}

package distance

// levenshtein returns the unit-cost edit distance (insertions, deletions,
// substitutions) between a and b, operating on bytes. Hostnames are ASCII,
// so byte-level distance matches rune-level distance for our inputs.
func levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	// Ensure b is the shorter string so the DP row is minimal.
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(b) == 0 {
		return len(a)
	}
	if len(b) <= 64 {
		return bitParallel(a, b)
	}
	row := make([]int, len(b)+1)
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= len(a); i++ {
		prev := row[0] // row[i-1][j-1]
		row[0] = i
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cur := row[j]
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			m := prev + cost
			if v := row[j] + 1; v < m {
				m = v
			}
			if v := row[j-1] + 1; v < m {
				m = v
			}
			row[j] = m
			prev = cur
		}
	}
	return row[len(b)]
}

// bitParallel is levenshtein for 1 ≤ len(b) ≤ 64, by Hyyrö's form of
// Myers' bit-parallel algorithm: bit i of each word holds the vertical
// delta D[i+1][j] − D[i][j] of the dynamic program's column j over b as
// positive (pv) or negative (mv), one column per byte of a, and score
// follows the last row. A column costs a dozen word operations instead
// of len(b) cells, and the result is the dynamic program's exactly.
func bitParallel(a, b string) int {
	var peq [256]uint64 // peq[c]: bit i set where b[i] == c
	for i := 0; i < len(b); i++ {
		peq[b[i]] |= 1 << i
	}
	last := uint64(1) << (len(b) - 1)
	pv, mv := ^uint64(0), uint64(0)
	score := len(b)
	for i := 0; i < len(a); i++ {
		eq := peq[a[i]]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			score++
		} else if mh&last != 0 {
			score--
		}
		// Row 0 is D[0][j] = j: every horizontal delta into it is +1.
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// normalized returns the paper's dhost term: levenshtein(a, b) divided by
// the length of the longer string, in [0, 1]. Two empty strings have
// distance 0.
func normalized(a, b string) float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	return float64(levenshtein(a, b)) / float64(n)
}

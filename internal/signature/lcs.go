package signature

// suffixAutomaton is a suffix automaton (directed acyclic word graph) of a
// single byte string. States are identified by dense int indices; state 0
// is the initial state. It is immutable after newSuffixAutomaton.
type suffixAutomaton struct {
	next     []map[byte]int32 // transitions
	link     []int32          // suffix links; link[0] == -1
	length   []int32          // longest substring length recognized at the state
	firstPos []int32          // end position (inclusive) of first occurrence
	byLength []int32          // state indices by increasing length
	last     int32
	src      []byte
}

// newSuffixAutomaton builds the suffix automaton of s. The automaton keeps
// a reference to s for substring extraction; callers must not mutate s
// afterwards.
func newSuffixAutomaton(s []byte) *suffixAutomaton {
	a := &suffixAutomaton{
		next:     make([]map[byte]int32, 1, 2*len(s)+2),
		link:     make([]int32, 1, 2*len(s)+2),
		length:   make([]int32, 1, 2*len(s)+2),
		firstPos: make([]int32, 1, 2*len(s)+2),
		src:      s,
	}
	a.next[0] = make(map[byte]int32)
	a.link[0] = -1
	for i, c := range s {
		a.extend(c, int32(i))
	}
	a.byLength = a.statesByLength()
	return a
}

func (a *suffixAutomaton) addState(length, link, firstPos int32) int32 {
	a.next = append(a.next, make(map[byte]int32))
	a.link = append(a.link, link)
	a.length = append(a.length, length)
	a.firstPos = append(a.firstPos, firstPos)
	return int32(len(a.next) - 1)
}

func (a *suffixAutomaton) extend(c byte, pos int32) {
	cur := a.addState(a.length[a.last]+1, -1, pos)
	p := a.last
	for p != -1 {
		if _, ok := a.next[p][c]; ok {
			break
		}
		a.next[p][c] = cur
		p = a.link[p]
	}
	if p == -1 {
		a.link[cur] = 0
	} else {
		q := a.next[p][c]
		if a.length[p]+1 == a.length[q] {
			a.link[cur] = q
		} else {
			clone := a.addState(a.length[p]+1, a.link[q], a.firstPos[q])
			// Copy q's transitions into the clone.
			for k, v := range a.next[q] {
				a.next[clone][k] = v
			}
			for p != -1 {
				if a.next[p][c] != q {
					break
				}
				a.next[p][c] = clone
				p = a.link[p]
			}
			a.link[q] = clone
			a.link[cur] = clone
		}
	}
	a.last = cur
}

// matchLengths streams t through the automaton and returns, for each state,
// the length of the longest substring of t whose traversal ends at that
// state (capped at the state's own length), propagated down suffix links.
func (a *suffixAutomaton) matchLengths(t []byte) []int32 {
	match := make([]int32, len(a.next))
	v, l := int32(0), int32(0) // current state and matched length
	for _, c := range t {
		for {
			if nv, ok := a.next[v][c]; ok {
				v = nv
				l++
				break
			}
			if a.link[v] == -1 {
				l = 0
				break
			}
			v = a.link[v]
			l = a.length[v]
		}
		if l > match[v] {
			match[v] = l
		}
	}
	order := a.byLength
	for i := len(order) - 1; i >= 0; i-- {
		st := order[i]
		p := a.link[st]
		if p < 0 || match[st] == 0 {
			continue
		}
		m := match[st]
		if m > a.length[p] {
			m = a.length[p]
		}
		if m > match[p] {
			match[p] = m
		}
	}
	return match
}

// statesByLength returns state indices sorted by increasing length using a
// counting sort (lengths are bounded by len(src)).
func (a *suffixAutomaton) statesByLength() []int32 {
	maxLen := int32(len(a.src))
	count := make([]int32, maxLen+2)
	for _, l := range a.length {
		count[l]++
	}
	for i := int32(1); i <= maxLen+1; i++ {
		count[i] += count[i-1]
	}
	order := make([]int32, len(a.length))
	for s := len(a.length) - 1; s >= 0; s-- {
		l := a.length[s]
		count[l]--
		order[count[l]] = int32(s)
	}
	return order
}

// longestCommonSubstring returns the longest substring shared by every
// string in ss. When several substrings tie for the maximum length the one
// occurring earliest in the shortest member is returned. The result aliases
// that member's backing array. An empty input or any empty member yields
// nil.
func longestCommonSubstring(ss [][]byte) []byte {
	switch len(ss) {
	case 0:
		return nil
	case 1:
		return ss[0]
	}
	// Use the shortest string as the automaton source: fewer states, and
	// every common substring is a substring of it.
	ref := 0
	for i, s := range ss {
		if len(s) < len(ss[ref]) {
			ref = i
		}
	}
	if len(ss[ref]) == 0 {
		return nil
	}
	a := newSuffixAutomaton(ss[ref])
	best := make([]int32, len(a.next))
	copy(best, a.length)
	for i, s := range ss {
		if i == ref {
			continue
		}
		m := a.matchLengths(s)
		for v := range best {
			if m[v] < best[v] {
				best[v] = m[v]
			}
		}
	}
	var bestLen, bestEnd int32
	bestEnd = -1
	for v := 1; v < len(a.next); v++ {
		if best[v] > bestLen ||
			(best[v] == bestLen && bestEnd >= 0 && a.firstPos[int32(v)] < bestEnd) {
			bestLen = best[v]
			bestEnd = a.firstPos[v]
		}
	}
	if bestLen == 0 {
		return nil
	}
	start := bestEnd - bestLen + 1
	return a.src[start : bestEnd+1]
}

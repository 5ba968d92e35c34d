// Package suffix implements a suffix automaton over byte strings and uses it
// to compute longest common substrings across two or more strings.
//
// Signature generation (§IV-E of the paper) needs "the longest common
// strings of HTTP contents" in each cluster. The suffix automaton gives the
// longest substring common to k strings in O(total length) time: build the
// automaton of the first string, then stream every other string through it,
// recording per state the longest match achieved, and finally take the
// minimum across strings at each state.
package suffix

// Automaton is a suffix automaton (directed acyclic word graph) of a single
// byte string. States are identified by dense int indices; state 0 is the
// initial state.
type Automaton struct {
	next     []map[byte]int32 // transitions
	link     []int32          // suffix links; link[0] == -1
	length   []int32          // longest substring length recognized at the state
	firstPos []int32          // end position (inclusive) of first occurrence
	byLength []int32          // state indices by increasing length
	last     int32
	src      []byte
}

// New builds the suffix automaton of s. The automaton keeps a reference to s
// for substring extraction; callers must not mutate s afterwards.
func New(s []byte) *Automaton {
	a := &Automaton{
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

func (a *Automaton) addState(length, link, firstPos int32) int32 {
	a.next = append(a.next, make(map[byte]int32))
	a.link = append(a.link, link)
	a.length = append(a.length, length)
	a.firstPos = append(a.firstPos, firstPos)
	return int32(len(a.next) - 1)
}

func (a *Automaton) extend(c byte, pos int32) {
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

// NumStates returns the number of states in the automaton.
func (a *Automaton) NumStates() int { return len(a.next) }

// Contains reports whether t occurs as a substring of the automaton's
// source string.
func (a *Automaton) Contains(t []byte) bool {
	v := int32(0)
	for _, c := range t {
		nv, ok := a.next[v][c]
		if !ok {
			return false
		}
		v = nv
	}
	return true
}

// matchLengths streams t through the automaton and returns, for each state,
// the length of the longest substring of t whose traversal ends at that
// state (capped at the state's own length), propagated down suffix links.
// It is the one-shot face of Stream: one Feed of the whole string.
func (a *Automaton) matchLengths(t []byte) []int32 {
	s := a.NewStream()
	s.Feed(t)
	return s.Finish()
}

// statesByLength returns state indices sorted by increasing length using a
// counting sort (lengths are bounded by len(src)).
func (a *Automaton) statesByLength() []int32 {
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

// LongestCommonSubstring returns the longest substring shared by every
// string in ss. When several substrings tie for the maximum length the one
// occurring earliest in ss[0] is returned. The result aliases ss[0]'s
// backing array. An empty input or any empty member yields nil.
func LongestCommonSubstring(ss [][]byte) []byte {
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
	a := New(ss[ref])
	best := make([]int32, a.NumStates())
	for i := range best {
		best[i] = a.length[i]
	}
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
	for v := 1; v < a.NumStates(); v++ {
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

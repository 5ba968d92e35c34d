package suffix

// Stream threads a match-length traversal over the automaton across
// arbitrary chunk boundaries: feeding a string in any number of pieces
// produces exactly the state one Feed of the concatenation would. This is
// the chunked face of the longest-common-substring machinery — token
// extraction streams each cluster member through the reference member's
// automaton without materializing a contiguous copy.
//
// A Stream is not safe for concurrent use, but any number of Streams may
// share one Automaton concurrently: the automaton is immutable after New,
// and every Stream owns its traversal state.
type Stream struct {
	a     *Automaton
	v, l  int32 // current state and matched length
	match []int32
	best  int32
}

// NewStream returns a fresh traversal over a.
func (a *Automaton) NewStream() *Stream {
	return &Stream{a: a, match: make([]int32, len(a.next))}
}

// Reset rewinds the stream to match a new string from scratch.
func (s *Stream) Reset() {
	s.v, s.l, s.best = 0, 0, 0
	for i := range s.match {
		s.match[i] = 0
	}
}

// step advances the traversal by one byte.
func (s *Stream) step(c byte) {
	a := s.a
	for {
		if nv, ok := a.next[s.v][c]; ok {
			s.v = nv
			s.l++
			break
		}
		if a.link[s.v] == -1 {
			s.l = 0
			break
		}
		s.v = a.link[s.v]
		s.l = a.length[s.v]
	}
	if s.l > s.match[s.v] {
		s.match[s.v] = s.l
	}
	if s.l > s.best {
		s.best = s.l
	}
}

// Feed advances the traversal over one chunk.
func (s *Stream) Feed(chunk []byte) {
	for _, c := range chunk {
		s.step(c)
	}
}

// FeedString advances the traversal over one string chunk.
func (s *Stream) FeedString(chunk string) {
	for i := 0; i < len(chunk); i++ {
		s.step(chunk[i])
	}
}

// BestLen returns the length of the longest substring of the fed text
// that occurs in the automaton's source, so far.
func (s *Stream) BestLen() int { return int(s.best) }

// Finish propagates the per-state match lengths down suffix links and
// returns them: match[v] is the length of the longest substring of the
// fed text whose traversal ends at v, capped at the state's own length.
// The returned slice is the stream's own; Reset clears it.
func (s *Stream) Finish() []int32 {
	a := s.a
	order := a.byLength
	for i := len(order) - 1; i >= 0; i-- {
		st := order[i]
		p := a.link[st]
		if p < 0 || s.match[st] == 0 {
			continue
		}
		m := s.match[st]
		if m > a.length[p] {
			m = a.length[p]
		}
		if m > s.match[p] {
			s.match[p] = m
		}
	}
	return s.match
}

package detect

import (
	"runtime"
	"sync"

	"leaksig/internal/capture"
	"leaksig/internal/httpmodel"
)

// Matcher is any packet-level detector: the compiled Engine or a Bayes
// signature. Implementations must be safe for concurrent use.
type Matcher interface {
	Matches(p *httpmodel.Packet) bool
}

// MatchSetWith evaluates every packet of the set against an arbitrary
// Matcher in parallel, returning one verdict per packet in order.
func MatchSetWith(m Matcher, s *capture.Set) []bool {
	return matchChunked(s, func() func(*httpmodel.Packet) bool { return m.Matches })
}

// matchChunked splits the set into one contiguous range per worker
// (GOMAXPROCS of them, at most one per packet) and records each packet's
// verdict in order. Each worker calls newMatch once, so per-worker state
// such as a Scratch is built once for its whole range.
func matchChunked(s *capture.Set, newMatch func() func(*httpmodel.Packet) bool) []bool {
	n := len(s.Packets)
	out := make([]bool, n)
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers < 1 {
		return out
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			match := newMatch()
			for i := lo; i < hi; i++ {
				out[i] = match(s.Packets[i])
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// EvaluateMatcher scores an arbitrary Matcher with the paper's equations,
// mirroring Evaluate for non-conjunction signature types.
func EvaluateMatcher(m Matcher, ds *capture.Set, sensitive []bool, n int) Result {
	return score(MatchSetWith(m, ds), sensitive, n)
}

package detect_test

import (
	"bytes"
	"math/rand"
	"testing"

	"leaksig/internal/core"
	"leaksig/internal/detect"
	"leaksig/internal/eval"
	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
	"leaksig/internal/trafficgen"
)

// BenchmarkMatchKinded times MatchInto with one warm scratch over a
// generated trace against a mixed-kind set: the paper's conjunction set
// at N=300 plus 200 kinded signatures cut from trace content — 60 %
// host-constrained conjunctions, 20 % ordered subsequences and 20 %
// conjunctions with url and base64 views. It reports ns and allocations
// per packet.
func BenchmarkMatchKinded(b *testing.B) {
	const seed = 11
	env := eval.NewEnv(trafficgen.Config{Seed: seed})
	ps := env.Dataset.Capture.Packets
	set := core.NewPipeline(core.Config{}).GenerateSignatures(env.SampleSuspicious(seed, 300))
	rng := rand.New(rand.NewSource(seed))
	set.Signatures = append(set.Signatures, kindedSigs(rng, ps, 200, len(set.Signatures))...)
	e := detect.NewEngine(set)
	sc := e.NewScratch()
	for _, p := range ps {
		e.MatchInto(p, sc)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			e.MatchInto(p, sc)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ps)), "ns/pkt")
	b.ReportMetric(float64(set.Len()), "signatures")
}

// kindedSigs derives n signatures from trace content, so some of them
// fire: per five, three host-constrained conjunctions of a request-line
// and a body token, one two-token subsequence in request-line order and
// one request-line conjunction with url and base64 views. IDs start at
// firstID.
func kindedSigs(rng *rand.Rand, ps []*httpmodel.Packet, n, firstID int) []*signature.Signature {
	out := make([]*signature.Signature, 0, n)
	for len(out) < n {
		p := ps[rng.Intn(len(ps))]
		rl := []byte(p.RequestLine())
		a := token(rng, rl)
		if a == "" {
			continue
		}
		sig := &signature.Signature{ID: firstID + len(out), Tokens: []string{a}, ClusterSize: 2}
		switch k := len(out) % 5; {
		case k < 3:
			sig.HostSuffix = p.Host
			if b := token(rng, p.Body); b != "" {
				sig.Tokens = append(sig.Tokens, b)
			}
		case k == 3:
			half := len(rl) / 2
			a, b := token(rng, rl[:half]), token(rng, rl[half:])
			if a == "" || b == "" {
				continue
			}
			sig.Kind = signature.KindSubsequence
			sig.Tokens = []string{a, b}
		default:
			sig.Views = []string{"url", "base64"}
		}
		out = append(out, sig)
	}
	return out
}

// token cuts a '\n'-free substring of length [8,24] out of src, or "".
func token(rng *rand.Rand, src []byte) string {
	if len(src) < 12 {
		return ""
	}
	n := 8 + rng.Intn(17)
	if n > len(src) {
		n = len(src)
	}
	off := rng.Intn(len(src) - n + 1)
	tok := src[off : off+n]
	if bytes.IndexByte(tok, '\n') >= 0 {
		return ""
	}
	return string(tok)
}

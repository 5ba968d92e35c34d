package leaksig

// Cross-cutting property-based tests (testing/quick) over the core data
// structures and the invariants the pipeline depends on: capture
// serialization totality, conjunction-matching semantics, distance-matrix
// symmetry, dendrogram validity over arbitrary metric inputs, and the
// paper's rate equations.

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"leaksig/internal/capture"
	"leaksig/internal/cluster"
	"leaksig/internal/detect"
	"leaksig/internal/distance"
	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
	"leaksig/internal/signature"
)

// arbitraryPacket derives a structurally valid packet from fuzz inputs.
func arbitraryPacket(seed int64) *httpmodel.Packet {
	rng := rand.New(rand.NewSource(seed))
	hosts := []string{"a.example", "ads.example.jp", "x-cdn.net", "t1.track.asia"}
	words := []string{"zone", "udid", "fmt", "page", "sid", "q"}
	b := httpmodel.Get(hosts[rng.Intn(len(hosts))], "/p"+string(rune('a'+rng.Intn(26))))
	if rng.Intn(2) == 0 {
		b = httpmodel.Post(hosts[rng.Intn(len(hosts))], "/q"+string(rune('a'+rng.Intn(26))))
	}
	for i := 0; i < rng.Intn(4); i++ {
		b.Query(words[rng.Intn(len(words))], randToken(rng))
	}
	if rng.Intn(3) == 0 {
		b.Cookie("s=" + randToken(rng))
	}
	p := b.Dest(ipaddr.Addr(rng.Uint32()), uint16(rng.Intn(65535)+1)).
		ID(rng.Int63n(1 << 40)).App("com.app" + randToken(rng)).Time(rng.Int63n(1 << 31)).
		Build()
	if p.Method == "POST" && rng.Intn(2) == 0 {
		p.Body = []byte("k=" + randToken(rng))
	}
	return p
}

func randToken(rng *rand.Rand) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz0123456789"
	n := 1 + rng.Intn(12)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alpha[rng.Intn(len(alpha))])
	}
	return sb.String()
}

func TestPropertyCaptureRoundTripsAnyPacket(t *testing.T) {
	f := func(seed int64) bool {
		p := arbitraryPacket(seed)
		if p.Validate() != nil {
			return true // only valid packets enter captures
		}
		var buf bytes.Buffer
		if capture.New([]*httpmodel.Packet{p}).WriteJSONL(&buf) != nil {
			return false
		}
		got, err := capture.ReadJSONL(&buf)
		if err != nil || got.Len() != 1 {
			return false
		}
		q := got.Packets[0]
		return q.ID == p.ID && q.App == p.App && q.Time == p.Time &&
			q.Host == p.Host && q.DstIP == p.DstIP && q.DstPort == p.DstPort &&
			q.RequestLine() == p.RequestLine() &&
			q.Cookie() == p.Cookie() && bytes.Equal(q.Body, p.Body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyConjunctionSemantics(t *testing.T) {
	// A packet matches a signature iff every token occurs inside one of
	// its content fields (request line, cookie, body — tokens never match
	// across field boundaries) and the host constraint holds — regardless
	// of engine internals.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := arbitraryPacket(seed)
		fields := p.ContentFields()
		// Build a signature from random substrings of single content
		// fields (present) and random tokens (absent).
		var tokens []string
		expect := true
		for i := 0; i < 1+rng.Intn(3); i++ {
			field := string(fields[rng.Intn(len(fields))])
			if rng.Intn(2) == 0 && len(field) > 4 {
				start := rng.Intn(len(field) - 2)
				end := start + 1 + rng.Intn(len(field)-start-1)
				tokens = append(tokens, field[start:end])
			} else {
				tok := "\x01absent-" + randToken(rng)
				tokens = append(tokens, tok)
				expect = false
			}
		}
		sig := &signature.Signature{ID: 0, Tokens: tokens}
		eng := detect.NewEngine(&signature.Set{Signatures: []*signature.Signature{sig}})
		return eng.Matches(p) == expect
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDistanceMatrixSymmetricNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		ps := make([]*httpmodel.Packet, n)
		for i := range ps {
			ps[i] = arbitraryPacket(seed + int64(i)*977)
		}
		mx := distance.NewMatrix(distance.Default(), ps)
		for i := 0; i < n; i++ {
			if mx.At(i, i) != 0 {
				return false
			}
			for j := 0; j < n; j++ {
				d := mx.At(i, j)
				if d < 0 || d != mx.At(j, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDendrogramValidOverArbitraryPackets(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		ps := make([]*httpmodel.Packet, n)
		for i := range ps {
			ps[i] = arbitraryPacket(seed ^ int64(i)*131071)
		}
		mx := distance.NewMatrix(distance.Default(), ps)
		dend := cluster.Agglomerate(mx, cluster.GroupAverage)
		if dend.Validate() != nil {
			return false
		}
		// Any flat cut partitions the leaves exactly.
		for _, k := range []int{1, 2, n} {
			total := 0
			seen := make(map[int]bool)
			for _, c := range dend.CutCount(k) {
				for _, leaf := range c {
					if seen[leaf] {
						return false
					}
					seen[leaf] = true
					total++
				}
			}
			if total != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEvaluationRatesConsistent(t *testing.T) {
	// For any labelling and any verdicts: TP+FN = 1 when denominators are
	// positive, and all counts add up.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(60)
		var ds capture.Set
		labels := make([]bool, n)
		sensCount := 0
		for i := 0; i < n; i++ {
			p := arbitraryPacket(seed + int64(i))
			ds.Append(p)
			labels[i] = rng.Intn(3) == 0
			if labels[i] {
				sensCount++
			}
		}
		train := 0
		if sensCount > 1 {
			train = rng.Intn(sensCount - 1)
		}
		// A matcher with arbitrary behaviour.
		m := substringMatcherP("e")
		res := detect.EvaluateMatcher(m, &ds, labels, train)
		if res.SensitiveTotal != sensCount || res.NormalTotal != n-sensCount {
			return false
		}
		if res.DetectedSensitive+res.UndetectedSensitive != res.SensitiveTotal {
			return false
		}
		if res.SensitiveTotal-train > 0 {
			sum := res.TruePositiveRate + res.FalseNegativeRate
			if sum < 0.999999 || sum > 1.000001 {
				return false
			}
		}
		return res.FalsePositiveRate >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// substringMatcherP matches packets whose content contains the substring.
type substringMatcherP string

func (m substringMatcherP) Matches(p *httpmodel.Packet) bool {
	return bytes.Contains(p.Content(), []byte(m))
}

func TestPropertySignatureSetSerializationStable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set := &signature.Set{Version: rng.Int63()}
		for i := 0; i < 1+rng.Intn(5); i++ {
			var toks []string
			for j := 0; j < 1+rng.Intn(4); j++ {
				toks = append(toks, randToken(rng))
			}
			set.Signatures = append(set.Signatures, &signature.Signature{
				ID: i, Tokens: toks, ClusterSize: 1 + rng.Intn(9),
			})
		}
		var buf bytes.Buffer
		if set.WriteJSON(&buf) != nil {
			return false
		}
		got, err := signature.ReadJSON(&buf)
		if err != nil || got.Len() != set.Len() || got.Version != set.Version {
			return false
		}
		for i := range set.Signatures {
			if got.Signatures[i].Key() != set.Signatures[i].Key() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

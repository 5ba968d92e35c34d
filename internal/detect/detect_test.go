package detect

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"leaksig/internal/capture"
	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
	"leaksig/internal/signature"
)

func sigSet(sigs ...*signature.Signature) *signature.Set {
	for i, s := range sigs {
		s.ID = i
	}
	return &signature.Set{Signatures: sigs}
}

func adPkt(host, path string) *httpmodel.Packet {
	return httpmodel.Get(host, path).Dest(ipaddr.MustParse("203.0.113.5"), 80).Build()
}

func TestMatchPacketConjunction(t *testing.T) {
	set := sigSet(
		&signature.Signature{Tokens: []string{"udid=f3a9", "zone="}},
		&signature.Signature{Tokens: []string{"imei=3539"}},
	)
	e := NewEngine(set)

	both := adPkt("x.example", "/a?zone=1&udid=f3a9")
	if got := e.MatchPacket(both); len(got) != 1 || got[0] != 0 {
		t.Errorf("MatchPacket(both tokens) = %v", got)
	}
	onlyOne := adPkt("x.example", "/a?udid=f3a9")
	if got := e.MatchPacket(onlyOne); len(got) != 0 {
		t.Errorf("conjunction violated: %v", got)
	}
	other := adPkt("x.example", "/a?imei=3539185")
	if got := e.MatchPacket(other); len(got) != 1 || got[0] != 1 {
		t.Errorf("MatchPacket(imei) = %v", got)
	}
	if !e.Matches(both) || e.Matches(adPkt("x.example", "/plain")) {
		t.Error("Matches inconsistent")
	}
}

func TestMatchHostConstraint(t *testing.T) {
	set := sigSet(&signature.Signature{
		Tokens:     []string{"udid=f3a9"},
		HostSuffix: "admob.com",
	})
	e := NewEngine(set)
	if !e.Matches(adPkt("r.admob.com", "/a?udid=f3a9")) {
		t.Error("matching host rejected")
	}
	if e.Matches(adPkt("evil.example", "/a?udid=f3a9")) {
		t.Error("non-matching host accepted")
	}
}

func TestMatchTokenInCookieAndBody(t *testing.T) {
	set := sigSet(&signature.Signature{Tokens: []string{"device=f3a9c1d2"}})
	e := NewEngine(set)
	inCookie := httpmodel.Get("x.example", "/p").Dest(1, 80).
		Cookie("device=f3a9c1d2").Build()
	inBody := httpmodel.Post("x.example", "/p").Dest(1, 80).
		BodyString("a=1&device=f3a9c1d2").Build()
	if !e.Matches(inCookie) || !e.Matches(inBody) {
		t.Error("token in cookie/body not matched")
	}
}

func TestTokenCannotSpanFields(t *testing.T) {
	// "f3a9" at the end of the request line plus "c1d2" at the start of the
	// cookie must not satisfy the token "f3a9c1d2" because Content()
	// separates fields with newlines.
	set := sigSet(&signature.Signature{Tokens: []string{"f3a9c1d2"}})
	e := NewEngine(set)
	p := httpmodel.Get("x.example", "/p?x=f3a9").Dest(1, 80).Cookie("c1d2=v").Build()
	if e.Matches(p) {
		t.Error("token matched across field boundary")
	}
}

func TestEmptySignatureNeverMatches(t *testing.T) {
	set := sigSet(&signature.Signature{Tokens: nil})
	e := NewEngine(set)
	if e.Matches(adPkt("x.example", "/anything")) {
		t.Error("token-less signature matched")
	}
}

func TestSharedTokensAcrossSignatures(t *testing.T) {
	// Two signatures sharing a token must each evaluate independently.
	set := sigSet(
		&signature.Signature{Tokens: []string{"shared-tok", "alpha-only"}},
		&signature.Signature{Tokens: []string{"shared-tok", "beta-only"}},
	)
	e := NewEngine(set)
	alpha := adPkt("x.example", "/p?shared-tok&alpha-only")
	got := e.MatchPacket(alpha)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("MatchPacket = %v", got)
	}
}

func TestMatchSetParallelAgreesWithSerial(t *testing.T) {
	set := sigSet(
		&signature.Signature{Tokens: []string{"udid=f3a9"}},
		&signature.Signature{Tokens: []string{"imei=3539"}, HostSuffix: "ad-maker.info"},
	)
	e := NewEngine(set)
	var ds capture.Set
	for i := 0; i < 200; i++ {
		switch i % 4 {
		case 0:
			ds.Append(adPkt("x.example", "/a?udid=f3a9"))
		case 1:
			ds.Append(adPkt("ad-maker.info", "/a?imei=3539"))
		case 2:
			ds.Append(adPkt("other.example", "/a?imei=3539")) // host constraint fails
		default:
			ds.Append(adPkt("x.example", "/benign"))
		}
	}
	par := e.MatchSet(&ds)
	for i, p := range ds.Packets {
		if par[i] != e.Matches(p) {
			t.Fatalf("parallel[%d] = %v disagrees with serial", i, par[i])
		}
	}
	if !par[0] || !par[1] || par[2] || par[3] {
		t.Errorf("match pattern wrong: %v", par[:4])
	}
}

func TestEvaluateRatesPaperEquations(t *testing.T) {
	// Construct a dataset with exact known counts:
	// 10 sensitive (8 detected incl. all 3 training, 2 missed),
	// 20 normal (1 false alarm).
	set := sigSet(&signature.Signature{Tokens: []string{"udid=f3a9"}})
	e := NewEngine(set)
	var ds capture.Set
	var sens []bool
	for i := 0; i < 8; i++ {
		ds.Append(adPkt("x.example", "/s?udid=f3a9"))
		sens = append(sens, true)
	}
	for i := 0; i < 2; i++ {
		ds.Append(adPkt("x.example", "/s?imsi=440100000000000")) // sensitive but missed
		sens = append(sens, true)
	}
	for i := 0; i < 19; i++ {
		ds.Append(adPkt("x.example", "/benign"))
		sens = append(sens, false)
	}
	ds.Append(adPkt("x.example", "/fp?udid=f3a9page")) // normal but matches
	sens = append(sens, false)

	const n = 3
	r := Evaluate(e, &ds, sens, n)
	if r.SensitiveTotal != 10 || r.NormalTotal != 20 {
		t.Fatalf("totals = %d/%d", r.SensitiveTotal, r.NormalTotal)
	}
	if r.DetectedSensitive != 8 || r.UndetectedSensitive != 2 || r.DetectedNormal != 1 {
		t.Fatalf("counts = %+v", r)
	}
	wantTP := float64(8-n) / float64(10-n)
	wantFN := 2.0 / float64(10-n)
	wantFP := 1.0 / float64(20-n)
	if math.Abs(r.TruePositiveRate-wantTP) > 1e-12 ||
		math.Abs(r.FalseNegativeRate-wantFN) > 1e-12 ||
		math.Abs(r.FalsePositiveRate-wantFP) > 1e-12 {
		t.Errorf("rates = %+v, want TP %v FN %v FP %v", r, wantTP, wantFN, wantFP)
	}
	// TP + FN must sum to 1 under the paper's equations.
	if math.Abs(r.TruePositiveRate+r.FalseNegativeRate-1) > 1e-12 {
		t.Errorf("TP + FN = %v", r.TruePositiveRate+r.FalseNegativeRate)
	}
}

func TestEvaluateDegenerateDenominators(t *testing.T) {
	set := sigSet(&signature.Signature{Tokens: []string{"udid="}})
	e := NewEngine(set)
	var ds capture.Set
	ds.Append(adPkt("x.example", "/s?udid=1"))
	r := Evaluate(e, &ds, []bool{true}, 1) // SensTotal == N
	if r.TruePositiveRate != 0 || r.FalseNegativeRate != 0 || r.FalsePositiveRate != 0 {
		t.Errorf("degenerate rates = %+v", r)
	}
}

func TestEvaluatePanicsOnLabelMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	e := NewEngine(sigSet())
	var ds capture.Set
	ds.Append(adPkt("x.example", "/"))
	Evaluate(e, &ds, nil, 0)
}

func TestEmptyEngine(t *testing.T) {
	e := NewEngine(&signature.Set{})
	if e.Matches(adPkt("x.example", "/?udid=1")) {
		t.Error("empty engine matched")
	}
	var ds capture.Set
	out := e.MatchSet(&ds)
	if len(out) != 0 {
		t.Error("empty set match")
	}
}

// conjunctionSet returns n signatures of 2–4 distinct tokens each, drawn
// at random from a vocabulary of vocab tokens: a set every signature of
// which takes the fast conjunction path.
func conjunctionSet(n, vocab int, seed int64) *signature.Set {
	r := rand.New(rand.NewSource(seed))
	sigs := make([]*signature.Signature, n)
	for i := range sigs {
		var toks []string
		for _, t := range r.Perm(vocab)[:2+r.Intn(3)] {
			toks = append(toks, fmt.Sprintf("tok%04d=", t))
		}
		sigs[i] = &signature.Signature{Tokens: toks}
	}
	return sigSet(sigs...)
}

// TestCompileAllocsConjunctionIndex pins NewEngine's allocation count on
// 1,000 random 2–4-token conjunctions over a 4,000-token vocabulary
// (about 2,100 distinct tokens): a fixed handful of flat slices plus the
// token map's growth, 62 here. A per-token postings slice, or a slice per
// signature or per token's bytes, creeping back in shows up as thousands.
func TestCompileAllocsConjunctionIndex(t *testing.T) {
	set := conjunctionSet(1000, 4000, 1)
	if allocs := testing.AllocsPerRun(3, func() { NewEngine(set) }); allocs > 80 {
		t.Errorf("NewEngine of %d conjunctions made %v allocations, want at most 80", len(set.Signatures), allocs)
	}
}

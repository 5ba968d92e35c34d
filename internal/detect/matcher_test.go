package detect

import (
	"strings"
	"testing"

	"leaksig/internal/capture"
	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
)

// substringMatcher is a trivial Matcher for tests.
type substringMatcher string

func (m substringMatcher) Matches(p *httpmodel.Packet) bool {
	return strings.Contains(string(p.Content()), string(m))
}

func TestMatchSetWithAgreesWithSerial(t *testing.T) {
	var ds capture.Set
	for i := 0; i < 300; i++ {
		if i%3 == 0 {
			ds.Append(adPkt("x.example", "/a?udid=f3a9"))
		} else {
			ds.Append(adPkt("x.example", "/benign"))
		}
	}
	m := substringMatcher("udid=f3a9")
	got := MatchSetWith(m, &ds)
	for i, p := range ds.Packets {
		if got[i] != m.Matches(p) {
			t.Fatalf("parallel verdict %d disagrees", i)
		}
	}
}

func TestMatchSetWithEmpty(t *testing.T) {
	out := MatchSetWith(substringMatcher("x"), &capture.Set{})
	if len(out) != 0 {
		t.Error("empty set")
	}
}

func TestEvaluateMatcherMatchesEvaluate(t *testing.T) {
	// The conjunction Engine implements Matcher; both evaluation paths
	// must produce identical results.
	set := sigSet(&signature.Signature{Tokens: []string{"udid=f3a9"}})
	e := NewEngine(set)
	var ds capture.Set
	var labels []bool
	for i := 0; i < 60; i++ {
		if i%2 == 0 {
			ds.Append(adPkt("x.example", "/s?udid=f3a9"))
			labels = append(labels, true)
		} else {
			ds.Append(adPkt("x.example", "/benign"))
			labels = append(labels, false)
		}
	}
	a := Evaluate(e, &ds, labels, 5)
	b := EvaluateMatcher(e, &ds, labels, 5)
	if a != b {
		t.Errorf("Evaluate %+v != EvaluateMatcher %+v", a, b)
	}
}

func TestEvaluateMatcherPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	var ds capture.Set
	ds.Append(adPkt("x.example", "/"))
	EvaluateMatcher(substringMatcher("x"), &ds, nil, 0)
}

var _ Matcher = (*Engine)(nil)
var _ Matcher = (*signature.BayesSignature)(nil)

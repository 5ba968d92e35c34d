package whois

import (
	"strings"
	"testing"

	"leaksig/internal/ipaddr"
)

func testRegistry() *Registry {
	return NewRegistry(map[string]ipaddr.Block{
		"Google":      ipaddr.MustParseBlock("64.16.0.0/16"),
		"Yahoo Japan": ipaddr.MustParseBlock("64.17.0.0/16"),
		"AdMaker":     ipaddr.MustParseBlock("103.16.0.0/16"),
	})
}

func TestLookup(t *testing.T) {
	r := testRegistry()
	rec, ok := r.Lookup(ipaddr.MustParse("64.16.200.1"))
	if !ok || rec.Org != "Google" {
		t.Errorf("Lookup = %+v, %v", rec, ok)
	}
	if _, ok := r.Lookup(ipaddr.MustParse("9.9.9.9")); ok {
		t.Error("unallocated address resolved")
	}
}

func TestLookupMostSpecificWins(t *testing.T) {
	r := NewRegistry(map[string]ipaddr.Block{
		"Big":   ipaddr.MustParseBlock("10.0.0.0/8"),
		"Small": ipaddr.MustParseBlock("10.5.0.0/16"),
	})
	rec, ok := r.Lookup(ipaddr.MustParse("10.5.1.1"))
	if !ok || rec.Org != "Small" {
		t.Errorf("most specific lookup = %+v", rec)
	}
	rec, _ = r.Lookup(ipaddr.MustParse("10.9.1.1"))
	if rec.Org != "Big" {
		t.Errorf("fallback lookup = %+v", rec)
	}
}

func TestVerifyCloseness(t *testing.T) {
	r := testRegistry()
	google1 := ipaddr.MustParse("64.16.0.1")
	google2 := ipaddr.MustParse("64.16.77.1")
	yahoo := ipaddr.MustParse("64.17.0.1") // shares 15 bits with google1
	far := ipaddr.MustParse("103.16.0.1")
	unknown := ipaddr.MustParse("9.9.9.9")

	if v := r.VerifyCloseness(google1, google2, 16); v != Confirmed {
		t.Errorf("same org closeness = %v", v)
	}
	// google1 and yahoo share a /15, so a 15-bit claim is made and refuted.
	if v := r.VerifyCloseness(google1, yahoo, 15); v != Refuted {
		t.Errorf("cross-org closeness = %v, want refuted", v)
	}
	// No claim between distant addresses: vacuously confirmed.
	if v := r.VerifyCloseness(google1, far, 16); v != Confirmed {
		t.Errorf("distant pair = %v", v)
	}
	if v := r.VerifyCloseness(google1, unknown, 0); v != Unknown {
		t.Errorf("unknown allocation = %v", v)
	}
}

func TestVerdictString(t *testing.T) {
	if Confirmed.String() != "confirmed" || Refuted.String() != "refuted" || Unknown.String() != "unknown" {
		t.Error("verdict names")
	}
}

func TestText(t *testing.T) {
	r := testRegistry()
	out := r.Text(ipaddr.MustParse("103.16.3.4"))
	for _, want := range []string{"inetnum:", "103.16.0.0/16", "AdMaker"} {
		if !strings.Contains(out, want) {
			t.Errorf("Text missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(r.Text(ipaddr.MustParse("9.9.9.9")), "no match") {
		t.Error("no-match text")
	}
}

func TestMetricResolver(t *testing.T) {
	r := testRegistry()
	res := r.MetricResolver()
	same, known := res(ipaddr.MustParse("64.16.0.1"), ipaddr.MustParse("64.16.5.5"))
	if !known || !same {
		t.Errorf("same-org pair = %v, %v", same, known)
	}
	same, known = res(ipaddr.MustParse("64.16.0.1"), ipaddr.MustParse("64.17.0.1"))
	if !known || same {
		t.Errorf("cross-org pair = %v, %v", same, known)
	}
	_, known = res(ipaddr.MustParse("9.9.9.9"), ipaddr.MustParse("64.16.0.1"))
	if known {
		t.Error("unallocated pair should be unknown")
	}
}

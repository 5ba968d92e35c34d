package distance

import (
	"math"
	"math/rand"
	"testing"

	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
)

func pkt(host, path string, ip string, port uint16) *httpmodel.Packet {
	return httpmodel.Get(host, path).Dest(ipaddr.MustParse(ip), port).Build()
}

func TestIPTermModes(t *testing.T) {
	norm := New(Config{Mode: ModeNormalized})
	lit := New(Config{Mode: ModeLiteral})
	a := ipaddr.MustParse("203.0.113.10")
	same := a
	if got := norm.ipTerm(a, same); got != 0 {
		t.Errorf("normalized identical IP term = %v, want 0", got)
	}
	if got := lit.ipTerm(a, same); got != 1 {
		t.Errorf("literal identical IP term = %v, want 1", got)
	}
	far := ipaddr.MustParse("10.0.0.1") // differs in top bit region
	nf := norm.ipTerm(a, far)
	lf := lit.ipTerm(a, far)
	if math.Abs(nf+lf-1) > 1e-12 {
		t.Errorf("modes should be complementary: %v + %v != 1", nf, lf)
	}
	if nf <= norm.ipTerm(a, ipaddr.MustParse("203.0.113.99")) {
		t.Error("same /24 should be closer than cross-class in normalized mode")
	}
}

func TestPortTermModes(t *testing.T) {
	norm := New(Config{Mode: ModeNormalized})
	lit := New(Config{Mode: ModeLiteral})
	if norm.portTerm(80, 80) != 0 || norm.portTerm(80, 443) != 1 {
		t.Error("normalized port term wrong")
	}
	if lit.portTerm(80, 80) != 1 || lit.portTerm(80, 443) != 0 {
		t.Error("literal port term wrong")
	}
}

func TestHostTermSharedByModes(t *testing.T) {
	norm := New(Config{Mode: ModeNormalized})
	lit := New(Config{Mode: ModeLiteral})
	a, b := "admob.com", "amob.com"
	if norm.hostTerm(a, b) != lit.hostTerm(a, b) {
		t.Error("host term should not depend on mode")
	}
	if norm.hostTerm(a, a) != 0 {
		t.Error("identical hosts should have zero host term")
	}
	if got := norm.hostTerm(a, b); math.Abs(got-1.0/9.0) > 1e-12 {
		t.Errorf("HostTerm = %v, want 1/9", got)
	}
}

func TestDestinationIdenticalNormalized(t *testing.T) {
	m := Default()
	p := pkt("ads.example.jp", "/a", "203.0.113.1", 80)
	q := pkt("ads.example.jp", "/b", "203.0.113.1", 80)
	if got := m.destination(p, q); got != 0 {
		t.Errorf("identical destination distance = %v, want 0", got)
	}
}

func TestDestinationRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Default()
	for i := 0; i < 200; i++ {
		p := pkt("a.example", "/", ipaddr.Addr(rng.Uint32()).String(), uint16(rng.Intn(65536)))
		q := pkt("bb.example.org", "/", ipaddr.Addr(rng.Uint32()).String(), uint16(rng.Intn(65536)))
		d := m.destination(p, q)
		if d < 0 || d > 3 {
			t.Fatalf("destination distance out of range: %v", d)
		}
	}
}

func TestContentDistanceOrdering(t *testing.T) {
	m := Default()
	base := pkt("ad.example", "/fetch?zone=12&udid=f3a9c1d200b14e67&fmt=json", "203.0.113.1", 80)
	near := pkt("ad.example", "/fetch?zone=99&udid=f3a9c1d200b14e67&fmt=json", "203.0.113.1", 80)
	far := pkt("ad.example", "/completely/other/endpoint/with/long/path/segments.js", "203.0.113.1", 80)
	if m.content(base, near) >= m.content(base, far) {
		t.Errorf("content distance ordering: near %v >= far %v",
			m.content(base, near), m.content(base, far))
	}
}

func TestPacketCombinesTerms(t *testing.T) {
	m := Default()
	p := pkt("a.example", "/x?q=1", "203.0.113.1", 80)
	q := pkt("b.example", "/y?q=2", "198.51.100.7", 443)
	want := m.destination(p, q) + m.content(p, q)
	if got := m.Packet(p, q); math.Abs(got-want) > 1e-12 {
		t.Errorf("Packet = %v, want %v", got, want)
	}
}

func TestWeights(t *testing.T) {
	p := pkt("a.example", "/x", "203.0.113.1", 80)
	q := pkt("b.example", "/y", "198.51.100.7", 443)
	contentOnly := New(Config{DestinationWeight: -1})
	if got, want := contentOnly.Packet(p, q), Default().content(p, q); math.Abs(got-want) > 1e-12 {
		t.Errorf("content-only = %v, want %v", got, want)
	}
	doubled := New(Config{DestinationWeight: 2, ContentWeight: 1})
	base := Default()
	want := 2*base.destination(p, q) + base.content(p, q)
	if got := doubled.Packet(p, q); math.Abs(got-want) > 1e-12 {
		t.Errorf("weighted = %v, want %v", got, want)
	}
}

func TestMaxValue(t *testing.T) {
	if got := Default().MaxValue(); got != 6 {
		t.Errorf("default MaxValue = %v, want 6", got)
	}
	if got := New(Config{DestinationWeight: -1}).MaxValue(); got != 3 {
		t.Errorf("content-only MaxValue = %v, want 3", got)
	}
}

func TestSelfDistanceNearZero(t *testing.T) {
	m := Default()
	p := pkt("ad.example", "/fetch?zone=12&udid=f3a9c1d200b14e67", "203.0.113.1", 80)
	d := m.Packet(p, p)
	// Destination terms are exactly 0; NCD of identical short strings is
	// small but non-zero for real compressors.
	if d < 0 || d > 1.0 {
		t.Errorf("self distance = %v", d)
	}
}

func TestSameModuleCloserThanCrossModule(t *testing.T) {
	// The property §IV-A relies on: two packets from one ad module (same
	// destination, same URL template) must be closer than packets from
	// different modules.
	m := Default()
	ad1a := pkt("ad-maker.info", "/ad/v2?zone=12&imei=353918051234563", "203.0.113.10", 80)
	ad1b := pkt("ad-maker.info", "/ad/v2?zone=98&imei=353918051234563", "203.0.113.10", 80)
	ad2 := pkt("admob.com", "/mads/gma?u=8a6b1c9f33d200e7&fmt=html", "198.51.100.200", 80)
	within := m.Packet(ad1a, ad1b)
	across := m.Packet(ad1a, ad2)
	if within >= across {
		t.Errorf("within-module %v >= across-module %v", within, across)
	}
}

func TestMatrix(t *testing.T) {
	ps := []*httpmodel.Packet{
		pkt("a.example", "/1?x=1", "203.0.113.1", 80),
		pkt("a.example", "/1?x=2", "203.0.113.1", 80),
		pkt("b.example", "/zzz", "198.51.100.9", 443),
		pkt("c.example", "/qqq?k=v", "192.0.2.55", 8080),
	}
	m := Default()
	mx := NewMatrix(m, ps)
	if mx.N() != 4 {
		t.Fatalf("N = %d", mx.N())
	}
	for i := 0; i < 4; i++ {
		if mx.At(i, i) != 0 {
			t.Errorf("At(%d,%d) = %v", i, i, mx.At(i, i))
		}
		for j := 0; j < 4; j++ {
			if mx.At(i, j) != mx.At(j, i) {
				t.Errorf("asymmetric At(%d,%d)", i, j)
			}
			if i != j {
				if want := m.Packet(ps[i], ps[j]); mx.At(i, j) != want {
					t.Errorf("At(%d,%d) = %v, want %v", i, j, mx.At(i, j), want)
				}
			}
		}
	}
}

func TestMatrixTrivialSizes(t *testing.T) {
	if mx := NewMatrix(Default(), nil); mx.N() != 0 {
		t.Error("empty matrix")
	}
	one := NewMatrix(Default(), []*httpmodel.Packet{pkt("a.example", "/", "203.0.113.1", 80)})
	if one.N() != 1 || one.At(0, 0) != 0 {
		t.Error("singleton matrix")
	}
}

func TestCondensedIndexCoversAllPairs(t *testing.T) {
	n := 17
	seen := make(map[int]bool)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			k := condensedIndex(n, i, j)
			if k < 0 || k >= n*(n-1)/2 {
				t.Fatalf("index out of range: (%d,%d) -> %d", i, j, k)
			}
			if seen[k] {
				t.Fatalf("index collision at (%d,%d) -> %d", i, j, k)
			}
			seen[k] = true
		}
	}
	if len(seen) != n*(n-1)/2 {
		t.Fatalf("covered %d of %d slots", len(seen), n*(n-1)/2)
	}
}

func TestModeString(t *testing.T) {
	if ModeNormalized.String() != "normalized" || ModeLiteral.String() != "literal" {
		t.Error("mode names")
	}
	if Mode(9).String() != "unknown" {
		t.Error("unknown mode name")
	}
}

func TestIPTermWithOrgResolver(t *testing.T) {
	// Two adjacent /16s owned by different organizations: raw prefix says
	// "close", the resolver corrects it (paper §VI).
	a := ipaddr.MustParse("64.16.0.1")
	b := ipaddr.MustParse("64.17.0.1") // 15 shared bits
	sameOrg := func(x, y ipaddr.Addr) (bool, bool) { return false, true }
	plain := New(Config{})
	verified := New(Config{OrgResolver: sameOrg})
	if plain.ipTerm(a, b) >= 0.9 {
		t.Fatalf("raw prefix term should be small-ish: %v", plain.ipTerm(a, b))
	}
	if got := verified.ipTerm(a, b); got != 1 {
		t.Errorf("refuted pair term = %v, want 1 (maximally far)", got)
	}
	// Confirmed same-org pair becomes maximally close.
	confirm := New(Config{OrgResolver: func(x, y ipaddr.Addr) (bool, bool) { return true, true }})
	if got := confirm.ipTerm(a, b); got != 0 {
		t.Errorf("confirmed pair term = %v, want 0", got)
	}
	// Unknown allocations fall back to the prefix term.
	unknown := New(Config{OrgResolver: func(x, y ipaddr.Addr) (bool, bool) { return false, false }})
	if got := unknown.ipTerm(a, b); got != plain.ipTerm(a, b) {
		t.Errorf("unknown pair term = %v, want prefix fallback %v", got, plain.ipTerm(a, b))
	}
}

func TestIPTermOrgResolverLiteralMode(t *testing.T) {
	a := ipaddr.MustParse("64.16.0.1")
	b := ipaddr.MustParse("64.17.0.1")
	lit := New(Config{Mode: ModeLiteral, OrgResolver: func(x, y ipaddr.Addr) (bool, bool) { return true, true }})
	if got := lit.ipTerm(a, b); got != 1 {
		t.Errorf("literal confirmed term = %v, want 1 (similarity)", got)
	}
}

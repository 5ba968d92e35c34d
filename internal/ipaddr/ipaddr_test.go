package ipaddr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseValid(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
	}{
		{"0.0.0.0", 0},
		{"255.255.255.255", 0xffffffff},
		{"192.0.2.7", 0xc0000207},
		{"10.1.2.3", 0x0a010203},
		{"1.2.3.4", 0x01020304},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q) error: %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %#x, want %#x", c.in, got, c.want)
		}
		if got.String() != c.in {
			t.Errorf("Parse(%q).String() = %q", c.in, got.String())
		}
	}
}

func TestParseInvalid(t *testing.T) {
	bad := []string{
		"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "1.2.3.-4",
		"a.b.c.d", "1..2.3", "01.2.3.4", "1.2.3.4 ", " 1.2.3.4",
		"1.2.3.04", "1234.2.3.4",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestOctetsRoundTrip(t *testing.T) {
	a := MustParse("203.0.113.77")
	if FromOctets(203, 0, 113, 77) != a {
		t.Fatal("FromOctets round trip failed")
	}
	if a.String() != "203.0.113.77" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestCommonPrefixLen(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"0.0.0.0", "0.0.0.0", 32},
		{"255.255.255.255", "255.255.255.255", 32},
		{"0.0.0.0", "128.0.0.0", 0},
		{"192.0.2.1", "192.0.2.2", 30},
		{"192.0.2.0", "192.0.3.0", 23},
		{"10.0.0.0", "11.0.0.0", 7},
		{"172.16.0.1", "172.16.0.0", 31},
	}
	for _, c := range cases {
		got := CommonPrefixLen(MustParse(c.a), MustParse(c.b))
		if got != c.want {
			t.Errorf("CommonPrefixLen(%s, %s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCommonPrefixLenProperties(t *testing.T) {
	// Symmetry and self-identity.
	f := func(a, b uint32) bool {
		x, y := Addr(a), Addr(b)
		if CommonPrefixLen(x, x) != 32 {
			return false
		}
		return CommonPrefixLen(x, y) == CommonPrefixLen(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// The prefix up to the returned length is actually equal.
	g := func(a, b uint32) bool {
		n := CommonPrefixLen(Addr(a), Addr(b))
		m := uint32(prefixMask(n))
		return a&m == b&m
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestMask(t *testing.T) {
	cases := []struct {
		bits int
		want string
	}{
		{0, "0.0.0.0"},
		{8, "255.0.0.0"},
		{16, "255.255.0.0"},
		{24, "255.255.255.0"},
		{25, "255.255.255.128"},
		{32, "255.255.255.255"},
	}
	for _, c := range cases {
		if got := prefixMask(c.bits).String(); got != c.want {
			t.Errorf("prefixMask(%d) = %s, want %s", c.bits, got, c.want)
		}
	}
	if prefixMask(-3) != 0 || prefixMask(40) != 0xffffffff {
		t.Error("Mask clamp failed")
	}
}

func TestBlock(t *testing.T) {
	b := MustParseBlock("203.0.113.0/24")
	if b.String() != "203.0.113.0/24" {
		t.Fatalf("String = %s", b.String())
	}
	if b.Size() != 256 {
		t.Fatalf("Size = %d", b.Size())
	}
	if !b.Contains(MustParse("203.0.113.255")) {
		t.Error("Contains(203.0.113.255) = false")
	}
	if b.Contains(MustParse("203.0.114.0")) {
		t.Error("Contains(203.0.114.0) = true")
	}
	if got := b.Nth(77); got != MustParse("203.0.113.77") {
		t.Errorf("Nth(77) = %s", got)
	}
}

func TestBlockNormalizesBase(t *testing.T) {
	b := MustParseBlock("203.0.113.99/24")
	if b.Base != MustParse("203.0.113.0") {
		t.Errorf("base not masked: %s", b.Base)
	}
}

func TestBlockInvalid(t *testing.T) {
	for _, s := range []string{"203.0.113.0", "203.0.113.0/33", "203.0.113.0/-1", "x/24", "203.0.113.0/a"} {
		if _, err := ParseBlock(s); err == nil {
			t.Errorf("ParseBlock(%q) succeeded, want error", s)
		}
	}
}

func TestBlockOverlaps(t *testing.T) {
	a := MustParseBlock("10.0.0.0/8")
	b := MustParseBlock("10.20.0.0/16")
	c := MustParseBlock("11.0.0.0/8")
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested blocks should overlap")
	}
	if a.Overlaps(c) || c.Overlaps(a) {
		t.Error("disjoint blocks should not overlap")
	}
}

func TestBlockNthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Nth out of range did not panic")
		}
	}()
	MustParseBlock("192.0.2.0/30").Nth(4)
}

func TestStringRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a := Addr(rng.Uint32())
		got, err := Parse(a.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", a.String(), err)
		}
		if got != a {
			t.Fatalf("round trip %#x -> %q -> %#x", a, a.String(), got)
		}
	}
}

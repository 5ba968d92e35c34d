package distance

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLevenshteinBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"gumbo", "gambol", 2},
		{"admob.com", "admob.com", 0},
		{"admob.com", "amob.com", 1},
		{"ad-maker.info", "admob.com", 9},
		{"a", "b", 1},
	}
	for _, c := range cases {
		if got := levenshtein(c.a, c.b); got != c.want {
			t.Errorf("levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 64 {
			a = a[:64]
		}
		if len(b) > 64 {
			b = b[:64]
		}
		return levenshtein(a, b) == levenshtein(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randStr := func() string {
		n := rng.Intn(20)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(4))
		}
		return string(b)
	}
	for i := 0; i < 500; i++ {
		a, b, c := randStr(), randStr(), randStr()
		ab, bc, ac := levenshtein(a, b), levenshtein(b, c), levenshtein(a, c)
		if ac > ab+bc {
			t.Fatalf("triangle violated: d(%q,%q)=%d > d(%q,%q)=%d + d(%q,%q)=%d",
				a, c, ac, a, b, ab, b, c, bc)
		}
	}
}

func TestLevenshteinBoundsProperty(t *testing.T) {
	// |len(a)-len(b)| <= d <= max(len(a), len(b))
	f := func(a, b string) bool {
		if len(a) > 48 {
			a = a[:48]
		}
		if len(b) > 48 {
			b = b[:48]
		}
		d := levenshtein(a, b)
		lo := len(a) - len(b)
		if lo < 0 {
			lo = -lo
		}
		hi := len(a)
		if len(b) > hi {
			hi = len(b)
		}
		return d >= lo && d <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// dpLevenshtein is the reference: the full O(nm) dynamic program.
func dpLevenshtein(a, b string) int {
	d := make([][]int, len(a)+1)
	for i := range d {
		d[i] = make([]int, len(b)+1)
		d[i][0] = i
	}
	for j := range d[0] {
		d[0][j] = j
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d[i][j] = min(d[i-1][j-1]+cost, d[i-1][j]+1, d[i][j-1]+1)
		}
	}
	return d[len(a)][len(b)]
}

// TestLevenshteinMatchesDP checks both paths (the bit-parallel one up to
// 64 bytes, the two-row program past it) against the full dynamic
// program on random strings of 0–80 bytes over small and full alphabets.
func TestLevenshteinMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randStr := func(n, alphabet int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(alphabet))
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		alphabet := []int{1, 2, 4, 26, 156}[i%5]
		a := randStr(rng.Intn(81), alphabet)
		b := randStr(rng.Intn(81), alphabet)
		if i%3 == 0 && len(a) > 0 {
			// A near copy: the distances hosts of one ad network have.
			c := []byte(a)
			c[rng.Intn(len(c))] = byte('a' + rng.Intn(alphabet))
			b = string(c[:rng.Intn(len(c)+1)]) + randStr(rng.Intn(4), alphabet)
		}
		if got, want := levenshtein(a, b), dpLevenshtein(a, b); got != want {
			t.Fatalf("levenshtein(%q, %q) = %d, dynamic program %d", a, b, got, want)
		}
	}
	// Exactly at the word boundary, both ways.
	for _, n := range []int{63, 64, 65} {
		a, b := randStr(n, 3), randStr(n+rng.Intn(20), 3)
		if got, want := levenshtein(a, b), dpLevenshtein(a, b); got != want {
			t.Fatalf("len %d, %d: Levenshtein = %d, dynamic program %d", len(a), len(b), got, want)
		}
	}
}

func TestLevenshteinWordPathAllocatesNothing(t *testing.T) {
	a, b := "n017.q8xk2mfa.example.net", "n018.q8xk2mfa.example.net.cdn"
	if n := testing.AllocsPerRun(100, func() { levenshtein(a, b) }); n != 0 {
		t.Fatalf("Levenshtein on hosts allocates %v times per call", n)
	}
}

func BenchmarkLevenshteinHosts(b *testing.B) {
	x, y := "ads.q8xk2mfa-net017.example.net", "trk.q8xk2mfa-net018.example.net"
	b.ReportAllocs()
	for b.Loop() {
		levenshtein(x, y)
	}
}

func TestNormalized(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "", 1},
		{"", "abcd", 1},
		{"ab", "ba", 1.0}, // two substitutions over max len 2
		{"admob.com", "admob.org", 3.0 / 9.0},
	}
	for _, c := range cases {
		if got := normalized(c.a, c.b); got != c.want {
			t.Errorf("normalized(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestNormalizedRange(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 40 {
			a = a[:40]
		}
		if len(b) > 40 {
			b = b[:40]
		}
		d := normalized(a, b)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

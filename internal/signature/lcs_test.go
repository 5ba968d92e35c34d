package signature

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// naiveLCS computes the longest common substring of all strings by brute
// force, preferring the earliest occurrence in ss[0] among ties of maximal
// length. Used as a reference implementation.
func naiveLCS(ss [][]byte) []byte {
	if len(ss) == 0 {
		return nil
	}
	if len(ss) == 1 {
		return ss[0]
	}
	s0 := ss[0]
	for n := len(s0); n > 0; n-- {
		for i := 0; i+n <= len(s0); i++ {
			cand := s0[i : i+n]
			all := true
			for _, t := range ss[1:] {
				if !bytes.Contains(t, cand) {
					all = false
					break
				}
			}
			if all {
				return cand
			}
		}
	}
	return nil
}

func TestAutomatonStateCountLinear(t *testing.T) {
	s := bytes.Repeat([]byte("ab"), 500)
	a := newSuffixAutomaton(s)
	if n := len(a.next); n > 2*len(s) {
		t.Errorf("state count %d exceeds 2n = %d", n, 2*len(s))
	}
}

func TestLCS2Known(t *testing.T) {
	cases := []struct {
		a, b, want string
	}{
		{"", "", ""},
		{"abc", "", ""},
		{"", "abc", ""},
		{"abc", "abc", "abc"},
		{"abcdef", "zabcyf", "abc"},
		{"GET /ad?id=123", "GET /ad?id=456", "GET /ad?id="},
		{"xyz", "abc", ""},
		{"banana", "ananas", "anana"},
	}
	for _, c := range cases {
		got := longestCommonSubstring([][]byte{[]byte(c.a), []byte(c.b)})
		if string(got) != c.want {
			t.Errorf("LCS(%q, %q) = %q, want %q", c.a, c.b, got, c.want)
		}
	}
}

func TestLCSMulti(t *testing.T) {
	cases := []struct {
		in   []string
		want string
	}{
		{[]string{"abcdef", "xxabcx", "yabcy"}, "abc"},
		{[]string{"udid=8a6b1c&app=1", "udid=8a6b1c&app=2", "x=1&udid=8a6b1c"}, "udid=8a6b1c"},
		{[]string{"one", "two", "three"}, ""},
		{[]string{"same", "same", "same"}, "same"},
		{[]string{"ab", "ba", "aa"}, "a"},
	}
	for _, c := range cases {
		ss := make([][]byte, len(c.in))
		for i, s := range c.in {
			ss[i] = []byte(s)
		}
		got := longestCommonSubstring(ss)
		if string(got) != c.want && len(got) != len(c.want) {
			t.Errorf("LCS(%v) = %q, want %q (or same length)", c.in, got, c.want)
		}
		// Verify the result really is common.
		for _, s := range ss {
			if !bytes.Contains(s, got) {
				t.Errorf("LCS(%v) = %q not contained in %q", c.in, got, s)
			}
		}
	}
}

func TestLCSDegenerate(t *testing.T) {
	if got := longestCommonSubstring(nil); got != nil {
		t.Errorf("LCS(nil) = %q", got)
	}
	if got := longestCommonSubstring([][]byte{[]byte("solo")}); string(got) != "solo" {
		t.Errorf("LCS(single) = %q", got)
	}
	if got := longestCommonSubstring([][]byte{[]byte("a"), nil}); got != nil {
		t.Errorf("LCS with empty member = %q", got)
	}
}

func TestLCS2MatchesNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alpha := []byte("abcd")
	randStr := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return b
	}
	for i := 0; i < 400; i++ {
		a := randStr(rng.Intn(30))
		b := randStr(rng.Intn(30))
		got := longestCommonSubstring([][]byte{a, b})
		want := naiveLCS([][]byte{a, b})
		if len(got) != len(want) {
			t.Fatalf("LCS(%q, %q) = %q (len %d), naive %q (len %d)",
				a, b, got, len(got), want, len(want))
		}
		if !bytes.Contains(a, got) || !bytes.Contains(b, got) {
			t.Fatalf("LCS(%q, %q) = %q is not common", a, b, got)
		}
	}
}

func TestLCSMultiMatchesNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	alpha := []byte("abc")
	randStr := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return b
	}
	for i := 0; i < 200; i++ {
		k := 2 + rng.Intn(4)
		ss := make([][]byte, k)
		for j := range ss {
			ss[j] = randStr(1 + rng.Intn(20))
		}
		got := longestCommonSubstring(ss)
		want := naiveLCS(ss)
		if len(got) != len(want) {
			t.Fatalf("LCS(%q) = %q (len %d), naive %q (len %d)", ss, got, len(got), want, len(want))
		}
		for _, s := range ss {
			if !bytes.Contains(s, got) {
				t.Fatalf("LCS(%q) = %q not common", ss, got)
			}
		}
	}
}

func TestLCSPropertyCommonAndMaximalLength(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 32 {
			a = a[:32]
		}
		if len(b) > 32 {
			b = b[:32]
		}
		got := longestCommonSubstring([][]byte{[]byte(a), []byte(b)})
		if !strings.Contains(a, string(got)) || !strings.Contains(b, string(got)) {
			return false
		}
		want := naiveLCS([][]byte{[]byte(a), []byte(b)})
		return len(got) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLCSSharedTemplateAcrossPackets(t *testing.T) {
	// Simulates ad-module request lines that share a URL template but carry
	// different per-request parameters: the template must be recovered.
	tmpl := "GET /ad/v2/fetch?zone=77&udid=f3a9c1d200b14e67&fmt=json&seq="
	packets := [][]byte{
		[]byte(tmpl + "1 HTTP/1.1"),
		[]byte(tmpl + "2918 HTTP/1.1"),
		[]byte(tmpl + "77 HTTP/1.1"),
	}
	got := longestCommonSubstring(packets)
	if !bytes.HasPrefix(got, []byte(tmpl)) {
		t.Errorf("template not recovered: got %q", got)
	}
}

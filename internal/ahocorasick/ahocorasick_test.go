package ahocorasick

import (
	"reflect"
	"testing"
)

func pats(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

// TestOccurrences pins the matching behaviour on hand-picked inputs; the
// randomized agreement with a naive reference lives in
// differential_test.go.
func TestOccurrences(t *testing.T) {
	cases := []struct {
		name     string
		patterns [][]byte
		text     []byte
		want     []bool
	}{
		{"classic", pats("he", "she", "his", "hers"), []byte("ushers"),
			[]bool{true, true, false, true}},
		{"query tokens", pats("udid=", "imei=", "carrier=docomo", "zz"),
			[]byte("GET /track?udid=abc&carrier=docomo HTTP/1.1"),
			[]bool{true, false, true, false}},
		// "" never matches; both "ab" copies and "b" report their own index.
		{"empty and duplicate patterns", pats("", "ab", "ab", "b"), []byte("ab"),
			[]bool{false, true, true, true}},
		{"overlapping and nested", pats("aa", "aaa", "a", "aaaaa"), []byte("aaaa"),
			[]bool{true, true, true, false}},
		{"overlap through a shared suffix", pats("an", "ana", "nab"), []byte("banana"),
			[]bool{true, true, false}},
		{"case sensitive", pats("IMEI=", "imei="), []byte("x?imei=3569"),
			[]bool{false, true}},
		{"binary", [][]byte{{0x00, 0xff}, {0xff, 0x00, 0xff}, {0x02, 0x01}},
			[]byte{0x01, 0xff, 0x00, 0xff, 0x02},
			[]bool{true, true, false}},
		{"empty text", pats("a"), nil, []bool{false}},
	}
	for _, c := range cases {
		m := Compile(c.patterns)
		occ := make([]uint64, m.BitsetWords())
		m.OccursSegments(occ, c.text)
		if got := bitsetToBools(occ, len(c.patterns)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: occurs = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestNoPatterns: an empty pattern set compiles to a matcher with a
// zero-word bitset that scans anything and reports nothing.
func TestNoPatterns(t *testing.T) {
	m := Compile(nil)
	if w := m.BitsetWords(); w != 0 {
		t.Fatalf("BitsetWords with no patterns = %d, want 0", w)
	}
	m.OccursSegments(nil, []byte("anything"))
	if st := m.ScanBytes(0, []byte("anything"), nil); st != 0 {
		t.Errorf("scan with no patterns left the root: state %d", st)
	}
}

// TestScanAccumulates: ScanBytes ORs into the bitset without clearing it,
// so a caller can accumulate occurrences across the fields of one packet.
func TestScanAccumulates(t *testing.T) {
	m := Compile(pats("alpha", "beta"))
	occ := make([]uint64, m.BitsetWords())
	m.ScanBytes(0, []byte("xx alpha xx"), occ)
	m.ScanBytes(0, []byte("yy beta yy"), occ)
	if got := bitsetToBools(occ, 2); !got[0] || !got[1] {
		t.Errorf("accumulation failed: %v", got)
	}
}

package reference

import "testing"

func TestMatchesOrdered(t *testing.T) {
	content := []byte("GET /a?imei=123&aid=456 HTTP/1.1\n\nsess=789")
	cases := []struct {
		toks []string
		want bool
	}{
		{[]string{"imei=123", "aid=456"}, true},
		{[]string{"aid=456", "imei=123"}, false}, // order matters
		{[]string{"imei=123", "imei=123"}, false},
		{[]string{"GET", "sess=789"}, true},
		{[]string{"absent"}, false},
		{nil, false},
	}
	for _, c := range cases {
		if got := ordered(c.toks, content); got != c.want {
			t.Errorf("ordered(%q) = %v, want %v", c.toks, got, c.want)
		}
	}
	// Tokens consume their bytes: "aba" holds "ab" and then only "a".
	if ordered([]string{"ab", "ba"}, []byte("aba")) {
		t.Error("overlapping tokens double-counted")
	}
	if !ordered([]string{"ab", "ba"}, []byte("abba")) {
		t.Error("adjacent tokens missed")
	}
}

package signature

import (
	"bytes"
	"strings"
	"testing"

	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
)

func adPacket(path string) *httpmodel.Packet {
	return httpmodel.Get("ad-maker.info", path).
		Dest(ipaddr.MustParse("203.0.113.10"), 80).Build()
}

func TestExtractTokensTemplate(t *testing.T) {
	contents := [][]byte{
		[]byte("GET /ad/v2?zone=12&udid=f3a9c1d200b14e67&seq=1 HTTP/1.1\n\n"),
		[]byte("GET /ad/v2?zone=98&udid=f3a9c1d200b14e67&seq=204 HTTP/1.1\n\n"),
		[]byte("GET /ad/v2?zone=5&udid=f3a9c1d200b14e67&seq=77 HTTP/1.1\n\n"),
	}
	tokens := ExtractTokens(contents)
	if len(tokens) == 0 {
		t.Fatal("no tokens extracted")
	}
	joined := strings.Join(tokens, "|")
	if !strings.Contains(joined, "udid=f3a9c1d200b14e67") {
		t.Errorf("invariant udid token missing: %v", tokens)
	}
	// Every token must occur in every content.
	for _, tok := range tokens {
		for _, c := range contents {
			if !bytes.Contains(c, []byte(tok)) {
				t.Errorf("token %q not in all contents", tok)
			}
		}
	}
}

func TestExtractTokensOrderedInOrder(t *testing.T) {
	contents := [][]byte{
		[]byte("AAAA-longcommonmiddle-ZZZZ1"),
		[]byte("AAAA+longcommonmiddle+ZZZZ2"),
	}
	tokens := extractTokens(contents, 4, 12)
	// In-order traversal: AAAA then middle then ZZZZ.
	if len(tokens) != 3 || tokens[0] != "AAAA" || tokens[1] != "longcommonmiddle" || tokens[2] != "ZZZZ" {
		t.Errorf("tokens = %v", tokens)
	}
}

func TestExtractTokensSplitsFieldSpanningTokens(t *testing.T) {
	// The LCS "aaaa\nbbbb-" straddles the '\n' field separator and must
	// split into its parts; the later token "cccc" must survive the
	// split growing the list (regression: in-place filtering overwrote
	// not-yet-read tokens).
	contents := [][]byte{
		[]byte("aaaa\nbbbb-XXccccXX"),
		[]byte("aaaa\nbbbb-YYccccYY"),
	}
	got := extractTokens(contents, 4, 12)
	want := []string{"aaaa", "bbbb-", "cccc"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tokens = %q, want %q", got, want)
		}
	}
	for _, tok := range got {
		if strings.Contains(tok, "\n") {
			t.Errorf("token %q still contains the field separator", tok)
		}
	}
}

func TestExtractTokensRespectsBudgetAndMinLen(t *testing.T) {
	contents := [][]byte{
		[]byte("aaaaaa-bbbbbb-cccccc-dddddd"),
		[]byte("aaaaaa+bbbbbb+cccccc+dddddd"),
	}
	if got := extractTokens(contents, 6, 2); len(got) > 2 {
		t.Errorf("budget exceeded: %v", got)
	}
	if got := extractTokens(contents, 30, 12); got != nil {
		t.Errorf("minLen not respected: %v", got)
	}
	if got := ExtractTokens(nil); got != nil {
		t.Errorf("empty input: %v", got)
	}
}

func TestInformativeLen(t *testing.T) {
	if got := informativeLen(" HTTP/1.1"); got != 0 {
		t.Errorf("boilerplate scored %d", got)
	}
	if got := informativeLen("GET /ad/v2?zone="); got < 6 {
		t.Errorf("real prefix scored %d", got)
	}
	if got := informativeLen("udid=f3a9c1d200b14e67"); got < 16 {
		t.Errorf("udid token scored %d", got)
	}
	if got := informativeLen(""); got != 0 {
		t.Errorf("empty token scored %d", got)
	}
}

func TestGenerateBasic(t *testing.T) {
	cluster1 := []*httpmodel.Packet{
		adPacket("/ad/v2?zone=12&imei=353918051234563"),
		adPacket("/ad/v2?zone=98&imei=353918051234563"),
		adPacket("/ad/v2?zone=5&imei=353918051234563"),
	}
	cluster2 := []*httpmodel.Packet{
		httpmodel.Get("admob.com", "/mads/gma?u=8a6b1c9f33d200e7&fmt=html").Dest(1, 80).Build(),
		httpmodel.Get("admob.com", "/mads/gma?u=8a6b1c9f33d200e7&fmt=json").Dest(1, 80).Build(),
	}
	set := Generate([][]*httpmodel.Packet{cluster1, cluster2}, Options{})
	if set.Len() != 2 {
		t.Fatalf("signatures = %d, want 2", set.Len())
	}
	if set.TrainingSize != 5 {
		t.Errorf("TrainingSize = %d", set.TrainingSize)
	}
	found := false
	for _, sig := range set.Signatures {
		for _, tok := range sig.Tokens {
			if strings.Contains(tok, "imei=353918051234563") {
				found = true
			}
		}
		if sig.ClusterSize == 0 {
			t.Error("missing cluster size")
		}
	}
	if !found {
		t.Error("imei token not present in any signature")
	}
}

func TestGenerateDeduplicates(t *testing.T) {
	c := []*httpmodel.Packet{
		adPacket("/ad/v2?zone=1&imei=353918051234563"),
		adPacket("/ad/v2?zone=2&imei=353918051234563"),
	}
	// Same cluster twice plus a bigger duplicate: one signature results,
	// carrying the larger cluster size.
	big := []*httpmodel.Packet{c[0], c[1], adPacket("/ad/v2?zone=3&imei=353918051234563")}
	_ = big
	set := Generate([][]*httpmodel.Packet{c, c}, Options{})
	if set.Len() != 1 {
		t.Fatalf("duplicate clusters produced %d signatures", set.Len())
	}
}

func TestGenerateMinClusterSize(t *testing.T) {
	single := []*httpmodel.Packet{adPacket("/ad/v2?zone=1&imei=353918051234563")}
	set := Generate([][]*httpmodel.Packet{single}, Options{MinClusterSize: 2})
	if set.Len() != 0 {
		t.Errorf("singleton cluster produced %d signatures despite MinClusterSize", set.Len())
	}
	set = Generate([][]*httpmodel.Packet{single}, Options{})
	if set.Len() != 1 {
		t.Errorf("default should keep singleton clusters: %d", set.Len())
	}
}

func TestGenerateBenignFilter(t *testing.T) {
	cluster := []*httpmodel.Packet{
		httpmodel.Get("api.example.jp", "/v1/items?format=json&lang=ja&imei=353918051234563").Dest(1, 80).Build(),
		httpmodel.Get("api.example.jp", "/v1/items?format=json&lang=ja&imei=353918051234563&p=2").Dest(1, 80).Build(),
	}
	benign := []*httpmodel.Packet{
		httpmodel.Get("api.example.jp", "/v1/items?format=json&lang=ja&q=weather").Dest(1, 80).Build(),
		httpmodel.Get("api.other.jp", "/v1/items?format=json&lang=ja&q=news").Dest(1, 80).Build(),
	}
	noFilter := Generate([][]*httpmodel.Packet{cluster}, Options{})
	withFilter := Generate([][]*httpmodel.Packet{cluster}, Options{
		BenignSample:      benign,
		MaxBenignFraction: 0.5,
	})
	if noFilter.Len() != 1 || withFilter.Len() != 1 {
		t.Fatalf("unexpected signature counts %d/%d", noFilter.Len(), withFilter.Len())
	}
	for _, tok := range withFilter.Signatures[0].Tokens {
		if strings.Contains(tok, "format=json&lang=ja") && !strings.Contains(tok, "imei") {
			t.Errorf("benign-common token survived filter: %q", tok)
		}
	}
	// The discriminative imei token must survive.
	joined := strings.Join(withFilter.Signatures[0].Tokens, "|")
	if !strings.Contains(joined, "imei=353918051234563") {
		t.Errorf("imei token lost: %v", withFilter.Signatures[0].Tokens)
	}
}

func TestHostMatchesSuffix(t *testing.T) {
	cases := []struct {
		host, suffix string
		want         bool
	}{
		{"a.admob.com", "admob.com", true},
		{"admob.com", "admob.com", true},
		{"xadmob.com", "admob.com", false},
		{"anything.example", "", true},
		{"admob.com.evil.example", "admob.com", false},
	}
	for _, c := range cases {
		if got := HostMatchesSuffix(c.host, c.suffix); got != c.want {
			t.Errorf("HostMatchesSuffix(%q, %q) = %v", c.host, c.suffix, got)
		}
	}
}

func TestSetJSONRoundTrip(t *testing.T) {
	cluster := []*httpmodel.Packet{
		adPacket("/ad/v2?zone=1&imei=353918051234563"),
		adPacket("/ad/v2?zone=2&imei=353918051234563"),
	}
	set := Generate([][]*httpmodel.Packet{cluster}, Options{})
	set.Signatures[0].HostSuffix = "ad-maker.info"
	set.Version = 42
	var buf bytes.Buffer
	if err := set.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 42 || got.Len() != set.Len() {
		t.Fatalf("round trip: %+v", got)
	}
	if got.Signatures[0].Key() != set.Signatures[0].Key() {
		t.Error("signature key changed through serialization")
	}
}

func TestReadJSONError(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{bad")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestSignatureKeyOrderIndependent(t *testing.T) {
	a := &Signature{Tokens: []string{"x", "y"}, HostSuffix: "h"}
	b := &Signature{Tokens: []string{"y", "x"}, HostSuffix: "h"}
	if a.Key() != b.Key() {
		t.Error("Key depends on token order")
	}
	c := &Signature{Tokens: []string{"x", "y"}, HostSuffix: "other"}
	if a.Key() == c.Key() {
		t.Error("Key ignores host suffix")
	}
}

func TestSignatureString(t *testing.T) {
	s := &Signature{ID: 3, Tokens: []string{"tok"}, HostSuffix: "h.example"}
	out := s.String()
	for _, want := range []string{"sig#3", "h.example", `"tok"`} {
		if !strings.Contains(out, want) {
			t.Errorf("String() = %q missing %q", out, want)
		}
	}
}

func TestBoilerplateOnlyClusterProducesNoSignature(t *testing.T) {
	// Packets sharing nothing but protocol boilerplate must yield nothing —
	// the failure mode §VI warns about.
	cluster := []*httpmodel.Packet{
		httpmodel.Get("a1.example", "/p1?x=abc123def").Dest(1, 80).Build(),
		httpmodel.Get("b2.example", "/q9?y=zzz999qqq").Dest(2, 80).Build(),
	}
	set := Generate([][]*httpmodel.Packet{cluster}, Options{})
	for _, sig := range set.Signatures {
		for _, tok := range sig.Tokens {
			if informativeLen(tok) < 6 {
				t.Errorf("boilerplate token survived: %q", tok)
			}
		}
	}
}

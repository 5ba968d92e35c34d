package signature

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// jsonDecode is the reference DecodeJSON is held to: encoding/json's
// stream decoder on the same bytes.
func jsonDecode(data []byte) (*Set, error) {
	var s Set
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// jsonEncode is the reference WriteJSON is held to.
func jsonEncode(t *testing.T, s *Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fastDecode is the reflection-free path alone, with a decoder of its
// own.
func fastDecode(data []byte) (*Set, bool) {
	var d setDecoder
	return d.set(data)
}

// checkAgainstJSON fails unless DecodeJSON, and ReadJSON from a reader
// that hides its length, give what encoding/json gives on data: the same
// set, or both an error.
func checkAgainstJSON(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := jsonDecode(data)
	got, err := DecodeJSON(data)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("DecodeJSON(%q) error = %v, encoding/json's = %v", data, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeJSON(%q) = %s, encoding/json's = %s", data, dump(got), dump(want))
	}
	streamed, err := ReadJSON(iotest.HalfReader(bytes.NewReader(data)))
	if (err != nil) != (wantErr != nil) || !reflect.DeepEqual(streamed, want) {
		t.Fatalf("ReadJSON(%q) = %s, %v; encoding/json's = %s, %v", data, dump(streamed), err, dump(want), wantErr)
	}
	if fast, ok := fastDecode(data); ok && !reflect.DeepEqual(fast, want) {
		t.Fatalf("fast path on %q = %s, encoding/json's = %s", data, dump(fast), dump(want))
	}
}

// dump renders a set with its nil/empty distinctions visible.
func dump(s *Set) string {
	if s == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "{TrainingSize:%d Version:%d Traces:%#v Signatures:", s.TrainingSize, s.Version, s.Traces)
	if s.Signatures == nil {
		b.WriteString("nil")
	}
	for _, sig := range s.Signatures {
		fmt.Fprintf(&b, " %#v", sig)
	}
	b.WriteString("}")
	return b.String()
}

// randomSet draws a set of every shape the wire carries: nil and empty
// lists, omitted fields, and strings of pieces encoding/json escapes or
// coerces. With nulls false it draws no nil entry or nil list, so its
// JSON has no null and the fast path must take it.
func randomSet(rng *rand.Rand, nulls bool) *Set {
	pieces := []string{"a", "Z", "/", "?", "=", "&", "<", ">", "\"", "\\", "\x00", "\x01", "\x1f", "\n", "\t",
		" ", " ", "é", "日本", "😀", "\xff", "\xe2\x82", "\u007f", " ", "udid=f3a9c1d2"}
	str := func() string {
		var b strings.Builder
		for n := rng.Intn(5); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	list := func() []string {
		switch n := rng.Intn(5); {
		case n == 0 && nulls:
			return nil
		case n <= 1:
			return []string{}
		default:
			out := make([]string, n-1)
			for i := range out {
				out[i] = str()
			}
			return out
		}
	}
	s := &Set{TrainingSize: rng.Intn(1e6) - 10, Version: rng.Int63() - rng.Int63()}
	if !nulls || rng.Intn(4) > 0 {
		s.Signatures = []*Signature{}
	}
	if rng.Intn(2) == 0 {
		s.Traces = list()
	}
	for n := rng.Intn(6); n > 0; n-- {
		if nulls && rng.Intn(8) == 0 {
			s.Signatures = append(s.Signatures, nil)
			continue
		}
		sig := &Signature{ID: rng.Int() - rng.Int(), Tokens: list(), ClusterSize: rng.Intn(100)}
		switch rng.Intn(4) {
		case 0:
			sig.Kind = KindSubsequence
		case 1:
			sig.Kind = str()
		}
		if rng.Intn(2) == 0 {
			sig.HostSuffix = str()
		}
		if rng.Intn(2) == 0 {
			sig.Views = list()
		}
		s.Signatures = append(s.Signatures, sig)
	}
	return s
}

// TestWriteJSONMatchesEncoder: WriteJSON's bytes are json.Encoder's
// with SetIndent("", "  "), for sets of every shape.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sets := []*Set{nil, {}, {Signatures: []*Signature{nil}}, {Signatures: []*Signature{{}}}}
	for i := 0; i < 2000; i++ {
		sets = append(sets, randomSet(rng, true))
	}
	for _, s := range sets {
		var got bytes.Buffer
		if err := s.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if want := jsonEncode(t, s); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("WriteJSON(%s):\n%s\nencoding/json:\n%s", dump(s), got.Bytes(), want)
		}
	}
}

// TestFastPathTakesWriteJSONOutput: WriteJSON's output of a set without
// nulls — and the same compacted, and with other whitespace between
// every token — decodes without the fallback, to what encoding/json
// decodes.
func TestFastPathTakesWriteJSONOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		var body bytes.Buffer
		if err := randomSet(rng, false).WriteJSON(&body); err != nil {
			t.Fatal(err)
		}
		var compact, spaced bytes.Buffer
		if err := json.Compact(&compact, body.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&spaced, compact.Bytes(), " \r", "\t "); err != nil {
			t.Fatal(err)
		}
		for _, data := range [][]byte{body.Bytes(), compact.Bytes(), spaced.Bytes()} {
			if _, ok := fastDecode(data); !ok {
				t.Fatalf("fast path refused WriteJSON output: %q", data)
			}
			checkAgainstJSON(t, data)
		}
	}
}

// setSeeds are the bodies where a hand-written decoder and encoding/json
// are most likely to part ways.
var setSeeds = []string{
	`{"signatures":[{"id":1,"tokens":["a","b"],"cluster_size":2}],"training_size":3,"version":4,"traces":["t"]}`,
	` { "signatures" : [ { "id" : 1 , "kind" : "subsequence" , "tokens" : [ "a" ] , "host_suffix" : "h" , "views" : [ "url" ] } ] } `,
	`{"signatures":[{"id":1,"tokens":["a&b\"\\\/\b\f\n\r\t","<x>","😀","\ud83d","\ude00x","\ud83dA"]}]}`,
	`{"signatures":[{"id":1,"tokens":["\u12"]}]}`,
	`{"signatures":[{"id":1,"tokens":["\'"]}]}`,
	"{\"signatures\":[{\"id\":1,\"tokens\":[\"\xff\"]}]}",
	"{\"signatures\":[{\"id\":1,\"tokens\":[\"\x01\"]}]}",
	`{"signatures":[{"id":1,"id":2}]}`,
	`{"version":1,"version":2}`,
	`{"signatures":[],"signatures":[{"id":1}]}`,
	`{"Signatures":[{"ID":1,"Tokens":["a"]}],"VERSION":3}`,
	`{"version":3}`,
	`{"signatures":null,"traces":null}`,
	`{"signatures":[null]}`,
	`{"signatures":[{"id":1,"tokens":null,"views":null,"kind":null,"host_suffix":null}]}`,
	`{"signatures":[{"id":1,"tokens":["a",null]}]}`,
	`null`,
	`[]`,
	`{}`,
	``,
	`   `,
	`{"signatures":[],"traces":[]}`,
	`{"signatures":[{}],"traces":[""]}`,
	`{"signatures":[{"tokens":[],"views":[],"kind":"","host_suffix":""}]}`,
	`{"version":1.0}`,
	`{"version":1e3}`,
	`{"version":-0,"training_size":-0}`,
	`{"version":01}`,
	`{"version":- 1}`,
	`{"version":9223372036854775807,"training_size":-9223372036854775808}`,
	`{"version":9223372036854775808}`,
	`{"version":-9223372036854775809}`,
	`{"version":"3"}`,
	`{"signatures":{}}`,
	`{"signatures":[{"id":1}],"x":1}`,
	`{"signatures":[{"id":1,"x":[1,{"y":null}]}]}`,
	`{"signatures":[{"id":1},]}`,
	`{"signatures":[{"id":1,}]}`,
	`{"version":1,}`,
	`{"version":3} {"version":4}`,
	`{"version":3}x`,
	`{"version":3}}`,
	`{"version":3}` + "\n\t ",
	`{"version":3`,
	`{"signatures":[{"id":1,"tokens":["a`,
}

// FuzzReadJSON holds DecodeJSON and ReadJSON to encoding/json on any
// bytes: the same Set, or both reject.
func FuzzReadJSON(f *testing.F) {
	for _, s := range setSeeds {
		f.Add([]byte(s))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		var body bytes.Buffer
		if err := randomSet(rng, i%2 == 0).WriteJSON(&body); err != nil {
			f.Fatal(err)
		}
		f.Add(body.Bytes())
		f.Add(body.Bytes()[:body.Len()/2]) // truncated
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstJSON(t, data)
	})
}

// FuzzWriteJSON holds WriteJSON to json.Encoder with SetIndent on sets
// built from fuzz input: shape's bits pick nil entries, nil or empty
// lists and which omitempty fields are set; the strings carry whatever
// bytes the fuzzer finds, invalid UTF-8 included.
func FuzzWriteJSON(f *testing.F) {
	f.Add("a|b", "ads.example", "", "t1", int64(3), uint16(0))
	f.Add("<x>|&amp;| ", "é.example", "subsequence", "", int64(-1), uint16(0xffff))
	f.Add("\xff\xfe|\x00|\"\\", "日本", "fuzzy", "\x7f", int64(1<<62), uint16(0x5555))
	f.Add("", "", "", "", int64(0), uint16(0xaaaa))
	f.Fuzz(func(t *testing.T, tokens, host, kind, trace string, n int64, shape uint16) {
		bit := func(i uint) bool { return shape&(1<<i) != 0 }
		list := func(i uint, s string) []string {
			switch {
			case bit(i):
				return nil
			case bit(i + 1):
				return []string{}
			}
			return strings.Split(s, "|")
		}
		s := &Set{TrainingSize: int(n), Version: -n}
		if !bit(0) {
			s.Signatures = []*Signature{}
		}
		if !bit(1) {
			s.Traces = list(2, trace)
		}
		for i := uint(0); i < 3; i++ {
			if bit(4 + i) {
				s.Signatures = append(s.Signatures, nil)
				continue
			}
			sig := &Signature{ID: int(n) + int(i), Tokens: list(7, tokens), ClusterSize: int(i)}
			if bit(9 + i) {
				sig.Kind, sig.HostSuffix = kind, host
				sig.Views = list(13, kind+"|"+host)
			}
			s.Signatures = append(s.Signatures, sig)
		}
		var got bytes.Buffer
		if err := s.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if want := jsonEncode(t, s); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("WriteJSON(%s):\n%q\nencoding/json:\n%q", dump(s), got.Bytes(), want)
		}
	})
}

// churnLikeSet is a 1,000-signature set shaped like the one each
// reload-churn publish carries: two or three 8–24-byte tokens, every
// other conjunction host-bound, a tenth subsequences, a tenth with views.
func churnLikeSet(rng *rand.Rand) *Set {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789=&/_-."
	word := func() string {
		b := make([]byte, 8+rng.Intn(17))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	set := &Set{TrainingSize: 1000}
	for i := 0; i < 1000; i++ {
		sig := &Signature{ID: i, ClusterSize: 3, Tokens: []string{word(), word()}}
		switch i % 10 {
		case 8:
			sig.Kind = KindSubsequence
			sig.Tokens = append(sig.Tokens, word())
		case 9:
			sig.Views = []string{"base64", "url"}
		default:
			if i%2 == 0 {
				sig.HostSuffix = "ads-" + word()[:6] + ".example.com"
			}
		}
		set.Signatures = append(set.Signatures, sig)
	}
	return set
}

// TestDecodeJSONAllocs pins the decoder's allocation budget for a
// 1,000-signature body, so a later change cannot silently go back to
// one allocation per value (encoding/json makes over 6,000 here): the
// set, its signature slice, and a few blocks of signatures, lists and
// text.
func TestDecodeJSONAllocs(t *testing.T) {
	var body bytes.Buffer
	if err := churnLikeSet(rand.New(rand.NewSource(4))).WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	if _, ok := fastDecode(body.Bytes()); !ok {
		t.Fatal("fast path refused the body")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeJSON(body.Bytes()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("decoding a 1,000-signature body made %.0f allocations, budget 16", allocs)
	}
}

// TestDecodeJSONReadsOnlyTheFirstValue pins what ReadJSON has always
// done with bytes after a complete set, since it has always been
// json.Decoder.Decode: it decodes the first value and does not look at
// the rest, so trailing bytes — another value or garbage — neither fail
// the read nor change the set.
func TestDecodeJSONReadsOnlyTheFirstValue(t *testing.T) {
	for _, body := range []string{
		`{"version":3,"signatures":[{"id":1,"tokens":["a"]}]} {"version":4}`,
		`{"version":3,"signatures":[{"id":1,"tokens":["a"]}]}garbage`,
		`{"version":3,"signatures":[{"id":1,"tokens":["a"]}]}}`,
	} {
		set, err := ReadJSON(strings.NewReader(body))
		if err != nil {
			t.Fatalf("ReadJSON(%q): %v", body, err)
		}
		if set.Version != 3 || set.Len() != 1 || set.Signatures[0].Tokens[0] != "a" {
			t.Fatalf("ReadJSON(%q) = %s, want the first value", body, dump(set))
		}
	}
}

// TestReadFileValidates: a signature file is held to what a publish is:
// one that decodes but fails Validate is refused, not handed to a
// daemon that would publish it or compile it.
func TestReadFileValidates(t *testing.T) {
	for _, body := range []string{
		`{"signatures":[{"id":1,"tokens":["udid="]},null]}`,
		`{"signatures":[{"id":1,"kind":"fuzzy","tokens":["udid="]}]}`,
		`{"signatures":[{"id":1,"tokens":["udid="],"views":["rot13"]}]}`,
		`{"signatures":[{"id":1,"tokens":[""]}]}`,
	} {
		path := t.TempDir() + "/sigs.json"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if set, err := ReadFile(path); err == nil {
			t.Fatalf("ReadFile accepted %s as %s", body, dump(set))
		}
	}
}

// BenchmarkCodec times the codec on a 1,000-signature body against
// encoding/json's stream decoder and indenting encoder.
func BenchmarkCodec(b *testing.B) {
	set := churnLikeSet(rand.New(rand.NewSource(4)))
	var body bytes.Buffer
	if err := set.WriteJSON(&body); err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(body.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			DecodeJSON(body.Bytes())
		}
	})
	b.Run("decode/encoding_json", func(b *testing.B) {
		b.SetBytes(int64(body.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			jsonDecode(body.Bytes())
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(body.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			set.WriteJSON(io.Discard)
		}
	})
	b.Run("encode/encoding_json", func(b *testing.B) {
		b.SetBytes(int64(body.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc := json.NewEncoder(io.Discard)
			enc.SetIndent("", "  ")
			enc.Encode(set)
		}
	})
}

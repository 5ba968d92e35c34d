package httpmodel

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"encoding/hex"
	"strings"
	"testing"
)

// collectSpans runs one decoder and gathers the emitted spans as copies
// (emitted slices alias scratch buffers).
func collectSpans(view View, src []byte) [][]byte {
	var vs ViewScratch
	var out [][]byte
	VisitDecodedView(view, src, &vs, func(dec []byte) {
		out = append(out, append([]byte(nil), dec...))
	})
	return out
}

func TestDecodeBase64Span(t *testing.T) {
	secret := "imei=356938035643809&aid=9774d56d682e549c"
	cases := map[string]string{
		"standard":       base64.StdEncoding.EncodeToString([]byte(secret)),
		"raw (unpadded)": base64.RawStdEncoding.EncodeToString([]byte(secret)),
		"url-safe":       base64.URLEncoding.EncodeToString([]byte(secret)),
		"key= prefix":    "p=" + base64.StdEncoding.EncodeToString([]byte(secret)),
		"embedded":       "junk!!(" + base64.StdEncoding.EncodeToString([]byte(secret)) + ")&more",
	}
	for name, body := range cases {
		spans := collectSpans(ViewBase64, []byte(body))
		found := false
		for _, s := range spans {
			if bytes.Contains(s, []byte(secret)) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: secret not recovered from %q; spans=%q", name, body, spans)
		}
	}
}

func TestDecodeBase64SkipsShortRuns(t *testing.T) {
	// Everyday query strings are full of short alphanumeric runs; none
	// may produce garbage decoded spans.
	if spans := collectSpans(ViewBase64, []byte("a=1&b=2&c=short")); len(spans) != 0 {
		t.Errorf("short runs decoded: %q", spans)
	}
}

func TestDecodeHexSpan(t *testing.T) {
	secret := "imei=356938035643809"
	body := "p=" + hex.EncodeToString([]byte(secret)) + "&q=1"
	spans := collectSpans(ViewHex, []byte(body))
	if len(spans) == 0 || !bytes.Contains(spans[0], []byte(secret)) {
		t.Fatalf("hex secret not recovered: %q", spans)
	}
	// Odd-length runs decode their even prefix.
	odd := hex.EncodeToString([]byte(secret)) + "a"
	spans = collectSpans(ViewHex, []byte("!"+odd+"!"))
	if len(spans) == 0 || !bytes.Contains(spans[0], []byte(secret)) {
		t.Fatalf("odd-length hex run not trimmed: %q", spans)
	}
}

func TestDecodeURLField(t *testing.T) {
	secret := "imei=356938035643809&aid=abc"
	body := "p=" + strings.NewReplacer("=", "%3D", "&", "%26").Replace(secret)
	spans := collectSpans(ViewURL, []byte(body))
	if len(spans) != 1 || !bytes.Contains(spans[0], []byte(secret)) {
		t.Fatalf("url secret not recovered: %q", spans)
	}
	// Unencoded fields emit nothing (the raw scan already covers them).
	if spans := collectSpans(ViewURL, []byte("plain=text")); len(spans) != 0 {
		t.Errorf("unencoded field emitted: %q", spans)
	}
	// Invalid escapes pass through literally, no panic.
	if spans := collectSpans(ViewURL, []byte("bad%zz+esc%4")); len(spans) != 1 ||
		!bytes.Equal(spans[0], []byte("bad%zz esc%4")) {
		t.Errorf("invalid escapes mishandled: %q", spans)
	}
}

func TestDecodeGzipField(t *testing.T) {
	secret := "imei=356938035643809&aid=9774d56d682e549c&pad=xxxxxxxxxxxxxxxx"
	var b bytes.Buffer
	zw := gzip.NewWriter(&b)
	zw.Write([]byte(secret))
	zw.Close()
	spans := collectSpans(ViewGzip, b.Bytes())
	if len(spans) != 1 || !bytes.Equal(spans[0], []byte(secret)) {
		t.Fatalf("gzip secret not recovered: %q", spans)
	}
	// Truncated stream: the cleanly-inflated prefix still comes out.
	trunc := b.Bytes()[:b.Len()-8]
	spans = collectSpans(ViewGzip, trunc)
	if len(spans) != 1 || !bytes.HasPrefix([]byte(secret), spans[0]) {
		t.Fatalf("truncated gzip: %q", spans)
	}
	// Non-gzip bodies emit nothing.
	if spans := collectSpans(ViewGzip, []byte("just a plain body here")); len(spans) != 0 {
		t.Errorf("non-gzip body emitted: %q", spans)
	}
}

func TestDecodeBounded(t *testing.T) {
	// A gzip bomb — 10 MB of zeros — must cap at maxViewOutput.
	var b bytes.Buffer
	zw := gzip.NewWriter(&b)
	zw.Write(make([]byte, 10<<20))
	zw.Close()
	spans := collectSpans(ViewGzip, b.Bytes())
	if len(spans) != 1 || len(spans[0]) > maxViewOutput {
		t.Fatalf("gzip output not bounded: %d spans, %d bytes", len(spans), len(spans[0]))
	}
	// A huge base64 run must cap too, and many runs must cap at
	// maxViewSpans.
	big := bytes.Repeat([]byte("QUFBQQ"), 100000)
	for _, view := range []View{ViewBase64, ViewHex} {
		total, n := 0, 0
		var vs ViewScratch
		VisitDecodedView(view, big, &vs, func(dec []byte) { total += len(dec); n++ })
		if total > maxViewOutput {
			t.Errorf("%v: decoded %d bytes > maxViewOutput", view, total)
		}
	}
	many := bytes.Repeat([]byte("41414141414141414141!"), 100)
	var vs ViewScratch
	n := 0
	VisitDecodedView(ViewHex, many, &vs, func([]byte) { n++ })
	if n > maxViewSpans {
		t.Errorf("hex emitted %d spans > maxViewSpans", n)
	}
}

func TestParseViewRoundTrip(t *testing.T) {
	for v := View(0); v < NumViews; v++ {
		got, ok := ParseView(v.String())
		if !ok || got != v {
			t.Errorf("ParseView(%q) = %v, %v", v.String(), got, ok)
		}
	}
	if _, ok := ParseView("rot13"); ok {
		t.Error("unknown view accepted")
	}
	m := ViewMaskOf([]string{"base64", "gzip", "bogus"})
	if !m.Has(ViewBase64) || !m.Has(ViewGzip) || m.Has(ViewHex) {
		t.Errorf("ViewMaskOf mask = %b", m)
	}
}

// FuzzViewDecoders drives every decoder with arbitrary bytes: none may
// panic, and none may emit more than maxViewOutput bytes per call.
func FuzzViewDecoders(f *testing.F) {
	f.Add([]byte("p=" + base64.StdEncoding.EncodeToString([]byte("imei=356938035643809"))))
	f.Add([]byte("p=" + hex.EncodeToString([]byte("imei=356938035643809"))))
	f.Add([]byte("p=imei%3D356938035643809%26x%3D1"))
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte("imei=356938035643809"))
	zw.Close()
	f.Add(gz.Bytes())
	f.Add([]byte{0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0x00})
	f.Add([]byte("===="))
	f.Add(bytes.Repeat([]byte("A"), 4096))

	f.Fuzz(func(t *testing.T, data []byte) {
		var vs ViewScratch
		for view := View(0); view < NumViews; view++ {
			total := 0
			VisitDecodedView(view, data, &vs, func(dec []byte) {
				total += len(dec)
				if len(dec) < minDecodedEmit {
					t.Fatalf("view %v emitted %d-byte span < minDecodedEmit", view, len(dec))
				}
			})
			if total > maxViewOutput {
				t.Fatalf("view %v emitted %d bytes > maxViewOutput", view, total)
			}
		}
	})
}

package httpmodel

import (
	"bytes"
	"strings"
	"testing"

	"leaksig/internal/ipaddr"
)

func samplePacket() *Packet {
	return Get("ad-maker.info", "/ad/v2").
		ID(7).
		App("com.example.game").
		Dest(ipaddr.MustParse("203.0.113.9"), 80).
		Query("zone", "12").
		Query("udid", "f3a9c1d200b14e67").
		UserAgent("Dalvik/1.4 (Linux; Android 2.3.4)").
		Cookie("sid=abc123").
		Build()
}

func TestRequestLine(t *testing.T) {
	p := samplePacket()
	want := "GET /ad/v2?zone=12&udid=f3a9c1d200b14e67 HTTP/1.1"
	if got := p.RequestLine(); got != want {
		t.Errorf("RequestLine = %q, want %q", got, want)
	}
}

func TestCookieConcatenation(t *testing.T) {
	p := samplePacket()
	if got := p.Cookie(); got != "sid=abc123" {
		t.Errorf("Cookie = %q", got)
	}
	p.Headers = append(p.Headers, Header{Name: "cookie", Value: "u=2"})
	if got := p.Cookie(); got != "sid=abc123; u=2" {
		t.Errorf("Cookie multi = %q", got)
	}
	q := Get("x.example", "/").Build()
	if q.Cookie() != "" {
		t.Errorf("Cookie absent = %q", q.Cookie())
	}
}

// TestCookieNameIsASCIIOnly pins the one rule for which headers form the
// cookie field: names equal to "Cookie" under ASCII case folding. The
// Kelvin sign (U+212A) folds to 'k' under Unicode rules, but a header
// named with it is not a cookie — for Cookie, AppendCookie and Content
// alike. The matcher builds its cookie field through AppendCookie; detect's
// TestCookieNameFoldsASCIIOnly holds it to the same rule.
func TestCookieNameIsASCIIOnly(t *testing.T) {
	p := Get("x.example", "/").Dest(1, 80).
		Header("COOKIE", "a=1").Header("Coo\u212Aie", "k=2").Header("cookie", "b=3").Build()
	const want = "a=1; b=3"
	if got := p.Cookie(); got != want {
		t.Errorf("Cookie = %q, want %q", got, want)
	}
	if got := string(p.AppendCookie([]byte("x:"))); got != "x:"+want {
		t.Errorf("AppendCookie = %q, want %q", got, "x:"+want)
	}
	if got := string(p.Content()); got != "GET / HTTP/1.1\n"+want+"\n" {
		t.Errorf("Content = %q", got)
	}
}

func TestContentLayout(t *testing.T) {
	p := samplePacket()
	c := p.Content()
	parts := bytes.SplitN(c, []byte("\n"), 3)
	if len(parts) != 3 {
		t.Fatalf("Content has %d parts", len(parts))
	}
	if string(parts[0]) != p.RequestLine() {
		t.Errorf("content[0] = %q", parts[0])
	}
	if string(parts[1]) != p.Cookie() {
		t.Errorf("content[1] = %q", parts[1])
	}
	if !bytes.Equal(parts[2], p.Body) {
		t.Errorf("content[2] = %q", parts[2])
	}
}

func TestContentFieldsOrder(t *testing.T) {
	p := Post("api.example.jp", "/submit").
		Dest(ipaddr.MustParse("198.51.100.3"), 80).
		Cookie("k=v").
		BodyString("a=1&b=2").
		Build()
	f := p.ContentFields()
	if string(f[0]) != "POST /submit HTTP/1.1" {
		t.Errorf("field 0 = %q", f[0])
	}
	if string(f[1]) != "k=v" {
		t.Errorf("field 1 = %q", f[1])
	}
	if string(f[2]) != "a=1&b=2" {
		t.Errorf("field 2 = %q", f[2])
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := Post("x.example", "/p").Dest(1, 80).BodyString("abc").Cookie("a=1").Build()
	q := p.clone()
	q.Body[0] = 'X'
	q.Headers[0].Value = "changed"
	if p.Body[0] != 'a' {
		t.Error("Clone shares body")
	}
	if p.Headers[0].Value == "changed" {
		t.Error("Clone shares headers")
	}
}

func TestValidate(t *testing.T) {
	good := samplePacket()
	if err := good.Validate(); err != nil {
		t.Errorf("valid packet rejected: %v", err)
	}
	cases := []func(*Packet){
		func(p *Packet) { p.Method = "PUT" },
		func(p *Packet) { p.Path = "noslash" },
		func(p *Packet) { p.Path = "" },
		func(p *Packet) { p.Proto = "HTTP/2" },
		func(p *Packet) { p.Host = "" },
		func(p *Packet) { p.Body = []byte("x") }, // GET with body
	}
	for i, mutate := range cases {
		p := samplePacket()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid packet accepted", i)
		}
	}
}

func TestByID(t *testing.T) {
	ps := []*Packet{{ID: 3}, {ID: 1}, {ID: 2}}
	ByID(ps)
	for i, want := range []int64{1, 2, 3} {
		if ps[i].ID != want {
			t.Fatalf("ByID order: %v", []int64{ps[0].ID, ps[1].ID, ps[2].ID})
		}
	}
}

func TestStringFormat(t *testing.T) {
	p := samplePacket()
	s := p.String()
	for _, want := range []string{"GET", "ad-maker.info", "/ad/v2", "203.0.113.9", "80"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestBuilderFormAndReuse(t *testing.T) {
	b := Post("track.example", "/t").Dest(5, 8080).Form("udid", "abc", "carrier", "docomo")
	p1 := b.Build()
	p2 := b.Build()
	if string(p1.Body) != "udid=abc&carrier=docomo" {
		t.Errorf("Form body = %q", p1.Body)
	}
	if h := p1.Headers; len(h) == 0 || h[len(h)-1] != (Header{Name: "Content-Type", Value: "application/x-www-form-urlencoded"}) {
		t.Errorf("headers = %v, want Content-Type form-urlencoded last", h)
	}
	p1.Body[0] = 'X'
	if p2.Body[0] == 'X' {
		t.Error("builds share body storage")
	}
}

func TestBuilderFormOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd Form args did not panic")
		}
	}()
	Post("x", "/").Form("only-key")
}

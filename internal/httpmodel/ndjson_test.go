package httpmodel_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
	"leaksig/internal/trafficgen"
)

// traceLines is the default trafficgen capture as json.Marshal writes
// it, plus the adversarial corpus's binary bodies.
func traceLines(tb testing.TB) [][]byte {
	tb.Helper()
	ps := trafficgen.Generate(trafficgen.Config{Seed: 1}).Capture.Packets
	ps = append(ps, trafficgen.GenerateAdversarial(trafficgen.AdversarialConfig{Seed: 1}).Packets...)
	out := make([][]byte, len(ps))
	for i, p := range ps {
		b, err := json.Marshal(p)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// readOne runs one line through ReadNDJSON and returns the accepted
// packet or the rejection.
func readOne(line []byte) (*httpmodel.Packet, error) {
	var got *httpmodel.Packet
	var rejected error
	_, _, err := httpmodel.ReadNDJSON(bytes.NewReader(line),
		func(p *httpmodel.Packet) error { got = p; return nil },
		func(_ int, err error) { rejected = err })
	if err != nil {
		return nil, err
	}
	return got, rejected
}

// checkAgainstJSON is the differential: whenever the fast path accepts a
// line, encoding/json accepts it too and decodes the identical Packet
// (nil and empty Body/Headers count as different); and ReadNDJSON, fast
// path or fallback, accepts and rejects exactly what encoding/json +
// Validate does, with the same error class.
func checkAgainstJSON(t *testing.T, fast func([]byte) (*httpmodel.Packet, bool), line []byte) {
	t.Helper()
	want := new(httpmodel.Packet)
	jerr := json.Unmarshal(line, want)
	if got, ok := fast(line); ok {
		if jerr != nil {
			t.Fatalf("fast path accepted a line encoding/json rejects (%v): %q", jerr, line)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fast path and encoding/json disagree on %q:\nfast %#v\njson %#v", line, got, want)
		}
	}
	if len(line) == 0 || bytes.ContainsAny(line, "\r\n") {
		return // not one NDJSON line
	}
	var wantErr error
	switch {
	case jerr != nil:
		wantErr = fmt.Errorf("malformed JSON")
	default:
		wantErr = want.Validate()
	}
	got, err := readOne(line)
	switch {
	case wantErr != nil && (err == nil || err.Error() != wantErr.Error()):
		t.Fatalf("ReadNDJSON on %q: error %v, want %v", line, err, wantErr)
	case wantErr == nil && err != nil:
		t.Fatalf("ReadNDJSON rejected %q (%v); encoding/json + Validate accept it", line, err)
	case wantErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("ReadNDJSON and encoding/json disagree on %q:\ngot  %#v\nwant %#v", line, got, want)
	}
}

// TestDecodeWholeTrace runs the differential over every trafficgen line,
// each through the fast path — a trace line that fell back would be the
// gain lost — with one decoder and one line buffer reused throughout,
// and checks the previous packet again after the next line overwrote
// both: a decoded field must alias neither.
func TestDecodeWholeTrace(t *testing.T) {
	fast := httpmodel.FastDecoder()
	var buf []byte
	var prev, prevWant *httpmodel.Packet
	for i, line := range traceLines(t) {
		buf = append(buf[:0], line...)
		got, ok := fast(buf)
		if !ok {
			t.Fatalf("trace line %d fell back to encoding/json: %s", i, line)
		}
		want := new(httpmodel.Packet)
		if err := json.Unmarshal(line, want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trace line %d: fast %#v, json %#v", i, got, want)
		}
		if prev != nil && !reflect.DeepEqual(prev, prevWant) {
			t.Fatalf("trace line %d: decoding it changed the packet of line %d", i, i-1)
		}
		prev, prevWant = got, want
	}
}

// TestFastPathTakesMarshalOutput is the fast path's contract: whatever
// json.Marshal writes for a Packet — HTML-escaped <>&, \u2028, control
// bytes, astral runes (surrogate pairs when escaped), invalid UTF-8
// coerced to \ufffd, empty and absent headers and bodies — and the same
// with whitespace between every token, decodes without the fallback, to
// what encoding/json decodes.
func TestFastPathTakesMarshalOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pieces := []string{"a", "Z", "/", "?", "=", "&", "<", ">", "\"", "\\", "\x00", "\x01", "\x1f", "\n", "\t",
		"\u2028", "\u2029", "é", "日本", "😀", "\xff", "\xe2\x82", "\u007f", " "}
	str := func() string {
		var b strings.Builder
		for n := rng.Intn(6); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	fast := httpmodel.FastDecoder()
	for i := 0; i < 2000; i++ {
		p := &httpmodel.Packet{
			ID: rng.Int63() - rng.Int63(), App: str(), Time: rng.Int63n(1e12), Host: str(),
			DstIP: ipaddr.Addr(rng.Uint32()), DstPort: uint16(rng.Intn(65536)),
			Method: []string{"GET", "POST", str()}[rng.Intn(3)], Path: str(), Proto: "HTTP/1.1", Trace: str(),
		}
		for n := rng.Intn(4); n > 0; n-- {
			p.Headers = append(p.Headers, httpmodel.Header{Name: str(), Value: str()})
		}
		if rng.Intn(2) == 0 {
			p.Body = []byte(str())
		}
		line, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var spaced bytes.Buffer
		if err := json.Indent(&spaced, line, " \r", "\t "); err != nil {
			t.Fatal(err)
		}
		for _, l := range [][]byte{line, spaced.Bytes()} {
			if _, ok := fast(l); !ok {
				t.Fatalf("fast path refused json.Marshal output: %q", l)
			}
			checkAgainstJSON(t, fast, l)
		}
	}
}

// fuzzSeeds are the lines where a hand-written decoder and encoding/json
// are most likely to part ways.
var fuzzSeeds = []string{
	`{"id":1,"host":"a","dst_ip":"1.2.3.4","dst_port":80,"method":"GET","path":"/x","proto":"HTTP/1.1"}`,
	` { "id" : 1 , "host" : "a" , "method" : "GET" , "path" : "/" , "proto" : "HTTP/1.0" } `,
	`{"id":1,"host":"a\u0026b\"\\\/\b\f\n\r\t","method":"GET","path":"/\u003cx\u003e","proto":"HTTP/1.1"}`,
	`{"id":1,"host":"\ud83d\ude00","method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":1,"host":"\ud83d","method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":1,"host":"\ude00x","method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":1,"host":"\ud83d\u0041","method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":1,"host":"\ud83d\ud83d\ude00","method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":1,"host":"\u12","method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":1,"host":"\'","method":"GET","path":"/","proto":"HTTP/1.1"}`,
	"{\"id\":1,\"host\":\"\xff\",\"method\":\"GET\",\"path\":\"/\",\"proto\":\"HTTP/1.1\"}",
	"{\"id\":1,\"host\":\"\x01\",\"method\":\"GET\",\"path\":\"/\",\"proto\":\"HTTP/1.1\"}",
	`{"id":1,"id":2,"host":"a","method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"ID":1,"Host":"a","METHOD":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"\u0069d":1,"host":"a","method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":1,"host":null,"method":"GET","path":"/","proto":"HTTP/1.1","headers":null,"body":null}`,
	`{"id":1,"host":"a","dst_ip":null,"method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`null`,
	`[]`,
	`{}`,
	`{"id":1.0,"host":"a","method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":1e3,"host":"a","method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":-0,"host":"a","dst_port":-0,"method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":01,"host":"a","method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":- 1,"host":"a","method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":9223372036854775807,"time":-9223372036854775808,"host":"a","method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":9223372036854775808,"host":"a","method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":1,"host":"a","dst_port":65535,"method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":1,"host":"a","dst_port":65536,"method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":1,"host":"a","dst_port":-1,"method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":1,"host":"a","dst_ip":"+1.2.3.4","method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":1,"host":"a","dst_ip":"01.2.3.4","method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":1,"host":"a","dst_ip":"256.2.3.4","method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":1,"host":"a","dst_ip":"1.2.3","method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":1,"host":"a","dst_ip":"1.2.3.4.5","method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":1,"host":"a","dst_ip":"\u0031.2.3.4","method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":1,"host":"a","dst_ip":1234,"method":"GET","path":"/","proto":"HTTP/1.1"}`,
	`{"id":1,"host":"a","method":"GET","path":"/","proto":"HTTP/1.1","x":1}`,
	`{"id":1,"host":"a","method":"GET","path":"/","proto":"HTTP/1.1","-":1}`,
	`{"id":1,"host":"a","method":"POST","path":"/","proto":"HTTP/1.1","headers":[],"body":""}`,
	`{"id":1,"host":"a","method":"POST","path":"/","proto":"HTTP/1.1","headers":[{}],"body":"YWJj"}`,
	`{"id":1,"host":"a","method":"POST","path":"/","proto":"HTTP/1.1","headers":[{"name":"Cookie","value":"s=1"},{"value":"v","name":"X"}]}`,
	`{"id":1,"host":"a","method":"POST","path":"/","proto":"HTTP/1.1","headers":[{"name":"a","name":"b"}]}`,
	`{"id":1,"host":"a","method":"POST","path":"/","proto":"HTTP/1.1","headers":[{"name":"a","value":"b"}],"headers":[{"name":"c"}]}`,
	`{"id":1,"host":"a","method":"POST","path":"/","proto":"HTTP/1.1","headers":[{"Name":"a"}]}`,
	`{"id":1,"host":"a","method":"POST","path":"/","proto":"HTTP/1.1","headers":[{"name":"a"},]}`,
	`{"id":1,"host":"a","method":"POST","path":"/","proto":"HTTP/1.1","body":"YW\nJj"}`,
	`{"id":1,"host":"a","method":"POST","path":"/","proto":"HTTP/1.1","body":"YWJ"}`,
	`{"id":1,"host":"a","method":"POST","path":"/","proto":"HTTP/1.1","body":"!!!!"}`,
	`{"id":1,"host":"a","method":"GET","path":"/","proto":"HTTP/1.1",}`,
	`{"id":1,"host":"a","method":"GET","path":"/","proto":"HTTP/1.1"} x`,
	`{"id":1,"host":"a","method":"GET","path":"/","proto":"HTTP/1.1"}{}`,
	`{"id":1,"host":"a","method":"GET","path":"/","proto":"HTTP/1.1"`,
	`{"id":1,"host":"a","method":"GE`,
	`{"id":1,"host":"a","method":"GET","path":"/","proto":"HTTP/1.1","trace":"00f067aa0ba902b7"}`,
}

// FuzzDecodePacket holds the schema decoder to encoding/json on any
// line: the same Packet, or both reject.
func FuzzDecodePacket(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	lines := traceLines(f)
	for i := 0; i < len(lines); i += 4000 {
		f.Add(lines[i])
		f.Add(lines[i][:len(lines[i])/2]) // truncated
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkAgainstJSON(t, httpmodel.FastDecoder(), line)
	})
}

// allocsPerLine is ReadNDJSON's marginal allocations per copy of line:
// a body of 2n copies less a body of n, so the per-call scanner, reader
// and decoder scratch drop out.
func allocsPerLine(line []byte, n int) float64 {
	accept := func(*httpmodel.Packet) error { return nil }
	reject := func(int, error) {}
	allocs := func(copies int) float64 {
		body := bytes.Repeat(append(line, '\n'), copies)
		return testing.AllocsPerRun(20, func() {
			httpmodel.ReadNDJSON(bytes.NewReader(body), accept, reject)
		})
	}
	return (allocs(2*n) - allocs(n)) / float64(n)
}

// TestReadNDJSONAllocs pins the decoder's allocation budget, so a later
// change cannot silently go back to reflection (18 allocations a trace
// line under encoding/json): one Packet, one string per non-constant
// field, the exact-size header slice, the body — at most 8 for any
// trace line shape.
func TestReadNDJSONAllocs(t *testing.T) {
	const budget = 8
	shapes := map[string][]byte{}
	for _, line := range traceLines(t) {
		var p httpmodel.Packet
		if err := json.Unmarshal(line, &p); err != nil {
			t.Fatal(err)
		}
		shape := fmt.Sprintf("%d headers, body %v", len(p.Headers), len(p.Body) > 0)
		if shapes[shape] == nil {
			shapes[shape] = line
		}
	}
	for shape, line := range shapes {
		got := allocsPerLine(line, 200)
		t.Logf("%s: %.2f allocations per line", shape, got)
		if got > budget {
			t.Errorf("%s: %.2f allocations per line through ReadNDJSON, budget %d\n%s", shape, got, budget, line)
		}
	}
}

// TestReadNDJSONPacketsOutliveTheBuffer: the scanner buffer goes back to
// a pool and the next call scans over it, so no delivered packet may
// alias it. Packets kept from one call must read byte-identical after
// later calls have overwritten the buffer with other lines.
func TestReadNDJSONPacketsOutliveTheBuffer(t *testing.T) {
	var body []byte
	bodies := 0
	ps := trafficgen.Generate(trafficgen.Config{Seed: 2, NumApps: 40, TotalPackets: 600}).Capture.Packets[:500]
	for _, p := range ps {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		body = append(append(body, b...), '\n')
		if len(p.Body) > 0 && len(p.Headers) > 0 {
			bodies++
		}
	}
	if bodies == 0 {
		t.Fatal("no sample packet carries headers and a body; the check would not cover them")
	}
	var kept []*httpmodel.Packet
	var want [][]byte
	_, rejected, err := httpmodel.ReadNDJSON(bytes.NewReader(body), func(p *httpmodel.Packet) error {
		b, err := json.Marshal(p)
		if err != nil {
			return err
		}
		kept, want = append(kept, p), append(want, b)
		return nil
	}, func(line int, err error) { t.Errorf("line %d: %v", line, err) })
	if err != nil || rejected != 0 || len(kept) != len(ps) {
		t.Fatalf("first call: %d kept, %d rejected, err %v", len(kept), rejected, err)
	}
	// Lines of the same lengths, all 'z': each overwrites the bytes the
	// matching trace line occupied, and each is rejected.
	overwrite := bytes.Map(func(r rune) rune {
		if r == '\n' {
			return r
		}
		return 'z'
	}, body)
	for i := 0; i < 4; i++ {
		httpmodel.ReadNDJSON(bytes.NewReader(overwrite), func(*httpmodel.Packet) error { return nil }, func(int, error) {})
		httpmodel.ReadNDJSON(bytes.NewReader(body), func(*httpmodel.Packet) error { return nil }, func(int, error) {})
	}
	for i, p := range kept {
		got, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("packet %d changed after later calls reused the buffer:\ngot  %s\nwant %s", i, got, want[i])
		}
	}
}

// TestReadNDJSONLineCap: the pooled buffer is smaller than the line cap,
// so a long line grows the scanner's own buffer, and the cap is exactly
// 1 MiB of line including its newline, as it was with a buffer of the
// whole cap.
func TestReadNDJSONLineCap(t *testing.T) {
	packetLine := func(size int) []byte {
		p := &httpmodel.Packet{ID: 1, Method: "GET", Host: "ads.example", Proto: "HTTP/1.1"}
		b, _ := json.Marshal(p)
		p.Path = "/x?q=" + strings.Repeat("a", size-len(b)-len("/x?q="))
		b, err := json.Marshal(p)
		if err != nil || len(b) != size {
			t.Fatalf("built a %d-byte line, want %d (%v)", len(b), size, err)
		}
		return append(b, '\n')
	}
	for _, c := range []struct {
		name string
		size int // line bytes before the newline
		ok   bool
	}{
		{"200 KiB", 200 << 10, true},
		{"1 MiB with its newline", 1<<20 - 1, true},
		{"1 MiB + 1", 1<<20 + 1, false},
	} {
		line := packetLine(c.size)
		accepted, rejected, err := httpmodel.ReadNDJSON(bytes.NewReader(line),
			func(*httpmodel.Packet) error { return nil }, func(int, error) {})
		if c.ok && (accepted != 1 || rejected != 0 || err != nil) {
			t.Errorf("%s: accepted %d, rejected %d, err %v; want the packet", c.name, accepted, rejected, err)
		}
		if !c.ok && (accepted != 0 || !errors.Is(err, bufio.ErrTooLong)) {
			t.Errorf("%s: accepted %d, err %v; want %v", c.name, accepted, err, bufio.ErrTooLong)
		}
	}
}

// BenchmarkReadNDJSON decodes trace lines with encoding/json + Validate
// (the reflective baseline) and through ReadNDJSON.
func BenchmarkReadNDJSON(b *testing.B) {
	lines := traceLines(b)[:4000]
	body := append(bytes.Join(lines, []byte("\n")), '\n')
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, line := range lines {
				p := new(httpmodel.Packet)
				if json.Unmarshal(line, p) != nil || p.Validate() != nil {
					b.Fatal("trace line did not decode")
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lines)), "ns/line")
	})
	b.Run("ReadNDJSON", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, rejected, _ := httpmodel.ReadNDJSON(bytes.NewReader(body),
				func(*httpmodel.Packet) error { return nil }, func(int, error) {})
			if rejected != 0 {
				b.Fatal("trace line rejected")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lines)), "ns/line")
	})
}

package capture

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
)

func sampleSet() *Set {
	mk := func(id int64, app, host, path string) *httpmodel.Packet {
		return httpmodel.Get(host, path).
			ID(id).App(app).Time(1325376000+id).
			Dest(ipaddr.MustParse("203.0.113.9"), 80).
			UserAgent("Dalvik/1.4").
			Build()
	}
	s := New(nil)
	s.Append(
		mk(1, "com.a", "admob.com", "/ads?id=1"),
		mk(2, "com.a", "gstatic.com", "/img/x.png"),
		mk(3, "com.b", "admob.com", "/ads?id=2"),
		httpmodel.Post("flurry.com", "/aap.do").
			ID(4).App("com.c").Time(1325376100).
			Dest(ipaddr.MustParse("198.51.100.77"), 80).
			Cookie("s=1").
			BodyString("imei=353918051234563&os=android").
			Build(),
	)
	return s
}

func TestFilterAndSplit(t *testing.T) {
	s := sampleSet()
	ads := s.Filter(func(p *httpmodel.Packet) bool { return p.Host == "admob.com" })
	if ads.Len() != 2 {
		t.Fatalf("Filter len = %d", ads.Len())
	}
	yes := s.Filter(func(p *httpmodel.Packet) bool { return p.Method == "POST" })
	no := s.Filter(func(p *httpmodel.Packet) bool { return p.Method != "POST" })
	if yes.Len() != 1 || no.Len() != 3 {
		t.Fatalf("Filter by a predicate and its negation = %d/%d, want 1/3", yes.Len(), no.Len())
	}
	if s.Len() != 4 {
		t.Error("source mutated")
	}
}

func TestSample(t *testing.T) {
	s := sampleSet()
	rng := rand.New(rand.NewSource(1))
	got := s.Sample(rng, 2)
	if got.Len() != 2 {
		t.Fatalf("Sample len = %d", got.Len())
	}
	// Stable order: IDs ascending because source was ascending.
	if got.Packets[0].ID >= got.Packets[1].ID {
		t.Errorf("sample order not stable: %d, %d", got.Packets[0].ID, got.Packets[1].ID)
	}
	all := s.Sample(rng, 100)
	if all.Len() != s.Len() {
		t.Errorf("oversized sample len = %d", all.Len())
	}
	all.Packets[0] = nil
	if s.Packets[0] == nil {
		t.Error("oversized sample aliases source slice")
	}
}

func TestSampleUniform(t *testing.T) {
	// Every packet should be selected roughly equally often.
	s := sampleSet()
	counts := make(map[int64]int)
	rng := rand.New(rand.NewSource(42))
	const iters = 4000
	for i := 0; i < iters; i++ {
		for _, p := range s.Sample(rng, 2).Packets {
			counts[p.ID]++
		}
	}
	for id, c := range counts {
		frac := float64(c) / float64(iters)
		if frac < 0.40 || frac > 0.60 { // expected 0.5 each
			t.Errorf("packet %d selected fraction %.3f, want ~0.5", id, frac)
		}
	}
}

func TestHosts(t *testing.T) {
	s := sampleSet()
	hosts := s.Hosts()
	if strings.Join(hosts, ",") != "admob.com,gstatic.com,flurry.com" {
		t.Errorf("Hosts = %v", hosts)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	s := sampleSet()
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSetsEqual(t, s, got)
}

func assertSetsEqual(t *testing.T, want, got *Set) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), want.Len())
	}
	for i := range want.Packets {
		w, g := want.Packets[i], got.Packets[i]
		if g.ID != w.ID || g.App != w.App || g.Time != w.Time {
			t.Errorf("packet %d metadata mismatch: %+v vs %+v", i, g, w)
		}
		if g.RequestLine() != w.RequestLine() || g.Host != w.Host {
			t.Errorf("packet %d request mismatch", i)
		}
		if g.DstIP != w.DstIP || g.DstPort != w.DstPort {
			t.Errorf("packet %d destination mismatch", i)
		}
		if !bytes.Equal(g.Body, w.Body) {
			t.Errorf("packet %d body mismatch", i)
		}
		if g.Cookie() != w.Cookie() {
			t.Errorf("packet %d cookie mismatch", i)
		}
	}
}

func TestJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{not json}\n")); err == nil {
		t.Error("garbage JSONL accepted")
	}
}

func TestFileRoundTrips(t *testing.T) {
	dir := t.TempDir()
	s := sampleSet()

	jp := filepath.Join(dir, "cap.jsonl")
	if err := s.SaveJSONL(jp); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSONL(jp)
	if err != nil {
		t.Fatal(err)
	}
	assertSetsEqual(t, s, got)
}

func TestEmptySetRoundTrips(t *testing.T) {
	s := New(nil)
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadJSONL(&buf); err != nil || got.Len() != 0 {
		t.Errorf("empty JSONL round trip: %v, len %d", err, got.Len())
	}
}

// captureLines is a valid two-packet capture with bad spliced in as its
// third line.
func captureLines(t *testing.T, bad string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := New(sampleSet().Packets[:2]).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String() + bad + "\n"
}

func TestReadJSONLRejectsInvalidPackets(t *testing.T) {
	for name, line := range map[string]string{
		"PUT":           `{"id":7,"host":"a.example","dst_ip":"203.0.113.9","dst_port":80,"method":"PUT","path":"/x","proto":"HTTP/1.1"}`,
		"GET with body": `{"id":8,"host":"a.example","dst_ip":"203.0.113.9","dst_port":80,"method":"GET","path":"/x","proto":"HTTP/1.1","body":"az0xMjM="}`,
	} {
		set, err := ReadJSONL(strings.NewReader(captureLines(t, line)))
		if err == nil {
			t.Errorf("%s: capture accepted with %d packets", name, set.Len())
			continue
		}
		if !strings.Contains(err.Error(), "line 3:") {
			t.Errorf("%s: error %q does not name line 3", name, err)
		}
	}
}

func TestReadJSONLErrorsNeverQuoteValues(t *testing.T) {
	const imei = "355136052391234"
	line := `{"id":9,"host":"a.example","dst_ip":"imei=` + imei + `","dst_port":80,"method":"GET","path":"/x","proto":"HTTP/1.1"}`
	_, err := ReadJSONL(strings.NewReader(captureLines(t, line)))
	if err == nil {
		t.Fatal("capture with an unparseable dst_ip accepted")
	}
	if strings.Contains(err.Error(), imei) {
		t.Errorf("error quotes the field value: %q", err)
	}
	if !strings.Contains(err.Error(), "line 3:") {
		t.Errorf("error %q does not name line 3", err)
	}
}

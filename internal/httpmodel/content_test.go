package httpmodel_test

import (
	"bytes"
	"testing"

	"leaksig/internal/httpmodel"
	"leaksig/internal/trafficgen"
)

// TestContentMatchesContentFields holds the three ways to read a packet's
// content to one layout, on hand-built packets and on every packet of the
// trafficgen trace and the adversarial corpus: AppendRequestLine appends
// exactly RequestLine, and Content is ContentFields joined by '\n'.
func TestContentMatchesContentFields(t *testing.T) {
	packets := []*httpmodel.Packet{
		httpmodel.Get("x.example", "/plain").Dest(1, 80).Build(),
		httpmodel.Post("track.example", "/t").Dest(5, 8080).
			Form("udid", "abc", "carrier", "docomo").Build(),
		httpmodel.Get("c.example", "/p").Dest(2, 80).
			Cookie("a=1").Cookie("b=2").Build(), // multiple Cookie headers join with "; "
	}
	packets = append(packets, trafficgen.Generate(trafficgen.Config{Seed: 1}).Capture.Packets...)
	packets = append(packets, trafficgen.GenerateAdversarial(trafficgen.AdversarialConfig{Seed: 1}).Packets...)
	for pi, p := range packets {
		if got, want := string(p.AppendRequestLine([]byte("x:"))), "x:"+p.RequestLine(); got != want {
			t.Fatalf("packet %d: AppendRequestLine = %q, want %q", pi, got, want)
		}
		f := p.ContentFields()
		if got, want := p.Content(), bytes.Join(f[:], []byte("\n")); !bytes.Equal(got, want) {
			t.Fatalf("packet %d: Content = %q, want ContentFields joined %q", pi, got, want)
		}
	}
}

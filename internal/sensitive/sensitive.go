// Package sensitive implements the paper's payload check: the ground-truth
// scanner that "separates application network traffic into two groups: one
// containing packets with sensitive information, and the other not" (§IV-A).
//
// Sensitive information follows §V-A: the UDIDs (Android ID, IMEI, IMSI,
// SIM Serial ID), their MD5 and SHA1 hex digests, and the carrier name.
// The scanner knows the device's concrete values, mirrors how the authors
// labelled their trace (they controlled the handset, so every sensitive
// byte string was known a priori), and reports which kinds occur in a
// packet's content.
package sensitive

import (
	"crypto/md5"
	"crypto/sha1"
	"encoding/hex"
	"strings"

	"leaksig/internal/ahocorasick"
	"leaksig/internal/android"
	"leaksig/internal/httpmodel"
)

// Kind is one row of the paper's Table III.
type Kind int

// Kinds in Table III order.
const (
	KindAndroidID Kind = iota
	KindAndroidIDMD5
	KindAndroidIDSHA1
	KindCarrier
	KindIMEI
	KindIMEIMD5
	KindIMEISHA1
	KindIMSI
	KindSIMSerial
	numKinds
)

var kindNames = [...]string{
	"ANDROID ID",
	"ANDROID ID MD5",
	"ANDROID ID SHA1",
	"CARRIER",
	"IMEI (Device ID)",
	"IMEI MD5",
	"IMEI SHA1",
	"IMSI (Subscriber ID)",
	"SIM Serial ID",
}

// String returns the Table III row label.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "UNKNOWN"
}

// NumKinds is the number of sensitive-information kinds.
const NumKinds = int(numKinds)

// MD5Hex returns the lowercase hex MD5 digest of s — the transformation ad
// modules apply to UDIDs before transmission (§III-B).
func MD5Hex(s string) string {
	sum := md5.Sum([]byte(s))
	return hex.EncodeToString(sum[:])
}

// SHA1Hex returns the lowercase hex SHA1 digest of s.
func SHA1Hex(s string) string {
	sum := sha1.Sum([]byte(s))
	return hex.EncodeToString(sum[:])
}

// Oracle scans packet contents for a device's sensitive values. It is
// immutable after construction and safe for concurrent use.
type Oracle struct {
	matcher *ahocorasick.Matcher
	kinds   []Kind // kind of pattern i
}

// NewOracle builds the payload check for one device. Hash digests are
// matched in both lowercase and uppercase hex because ad modules differ in
// presentation; plain identifiers are matched verbatim, and the carrier
// name case-insensitively via its known casings.
func NewOracle(d *android.Device) *Oracle {
	var patterns [][]byte
	var kinds []Kind
	add := func(k Kind, values ...string) {
		for _, v := range values {
			if v == "" {
				continue
			}
			patterns = append(patterns, []byte(v))
			kinds = append(kinds, k)
		}
	}
	addHash := func(k Kind, digest string) {
		add(k, digest, strings.ToUpper(digest))
	}
	add(KindAndroidID, d.AndroidID, strings.ToUpper(d.AndroidID))
	addHash(KindAndroidIDMD5, MD5Hex(d.AndroidID))
	addHash(KindAndroidIDSHA1, SHA1Hex(d.AndroidID))
	add(KindCarrier, d.Carrier.Name, strings.ToLower(d.Carrier.Name), strings.ToUpper(d.Carrier.Name))
	add(KindIMEI, d.IMEI)
	addHash(KindIMEIMD5, MD5Hex(d.IMEI))
	addHash(KindIMEISHA1, SHA1Hex(d.IMEI))
	add(KindIMSI, d.IMSI)
	add(KindSIMSerial, d.SIMSerial)
	return &Oracle{
		matcher: ahocorasick.Compile(patterns),
		kinds:   kinds,
	}
}

// ScanBytes reports the distinct kinds of sensitive information occurring
// in raw content, in Kind order.
func (o *Oracle) ScanBytes(content []byte) []Kind {
	occ := make([]uint64, o.matcher.BitsetWords())
	o.matcher.OccursSegments(occ, content)
	var present [numKinds]bool
	for i, k := range o.kinds {
		if occ[i>>6]&(1<<(i&63)) != 0 {
			present[k] = true
		}
	}
	var out []Kind
	for k := Kind(0); k < numKinds; k++ {
		if present[k] {
			out = append(out, k)
		}
	}
	return out
}

// Scan reports the distinct kinds of sensitive information in the packet's
// content (request line + cookie + body).
func (o *Oracle) Scan(p *httpmodel.Packet) []Kind {
	return o.ScanBytes(p.Content())
}

// IsSensitive reports whether the packet carries any sensitive information —
// the predicate that forms the paper's suspicious group.
func (o *Oracle) IsSensitive(p *httpmodel.Packet) bool {
	return len(o.Scan(p)) > 0
}

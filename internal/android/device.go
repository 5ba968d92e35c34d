package android

import (
	"fmt"
	"math/rand"
)

// Carrier identifies a mobile network operator. The dataset was collected
// in Japan (§III-B), so the built-in carriers are the Japanese operators of
// 2012 with their real MCC/MNC codes.
type Carrier struct {
	Name string // as transmitted by ad modules, e.g. "NTTDOCOMO"
	MCC  string // mobile country code (3 digits)
	MNC  string // mobile network code (2 digits)
}

// Japanese carriers contemporaneous with the paper's collection window.
var (
	CarrierDocomo   = Carrier{Name: "NTTDOCOMO", MCC: "440", MNC: "10"}
	carrierSoftBank = Carrier{Name: "SoftBank", MCC: "440", MNC: "20"}
	carrierKDDI     = Carrier{Name: "KDDI", MCC: "440", MNC: "50"}
	carrierEmobile  = Carrier{Name: "eMobile", MCC: "440", MNC: "00"}
)

// Carriers lists the built-in carriers.
func Carriers() []Carrier {
	return []Carrier{CarrierDocomo, carrierSoftBank, carrierKDDI, carrierEmobile}
}

// Device models the identifier-bearing state of one handset: the four UDIDs
// the paper tracks (§III-B) plus the carrier name.
//
//	IMEI       — device hardware number (15 digits, Luhn check digit)
//	IMSI       — subscriber number in the SIM (MCC+MNC+MSIN, 15 digits)
//	SIMSerial  — ICCID of the SIM card (19 digits, Luhn check digit)
//	AndroidID  — 64-bit value assigned at Android's first boot (16 hex chars)
type Device struct {
	Model     string
	OSVersion string
	Carrier   Carrier
	IMEI      string
	IMSI      string
	SIMSerial string
	AndroidID string
}

// NewDevice fabricates a device with format-valid identifiers drawn from
// rng. The model/OS default to the paper's experiment hardware
// (Galaxy Nexus S, Android 2.3).
func NewDevice(rng *rand.Rand, carrier Carrier) *Device {
	return &Device{
		Model:     "Nexus S",
		OSVersion: "2.3.4",
		Carrier:   carrier,
		IMEI:      generateIMEI(rng),
		IMSI:      generateIMSI(rng, carrier),
		SIMSerial: generateICCID(rng),
		AndroidID: generateAndroidID(rng),
	}
}

// luhnCheckDigit returns the Luhn check digit for the given digit string.
// It panics on non-digit input (programming error).
func luhnCheckDigit(digits string) byte {
	sum := 0
	// The check digit will be appended, so positions alternate starting
	// with double on the rightmost existing digit.
	double := true
	for i := len(digits) - 1; i >= 0; i-- {
		c := digits[i]
		if c < '0' || c > '9' {
			panic(fmt.Sprintf("android: non-digit %q in %q", c, digits))
		}
		d := int(c - '0')
		if double {
			d *= 2
			if d > 9 {
				d -= 9
			}
		}
		sum += d
		double = !double
	}
	return byte('0' + (10-sum%10)%10)
}

// luhnValid reports whether the digit string (including its final check
// digit) passes the Luhn check.
func luhnValid(s string) bool {
	if len(s) < 2 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return luhnCheckDigit(s[:len(s)-1]) == s[len(s)-1]
}

// Type-allocation codes of 2011-2012 era Android handsets; the first is the
// Nexus S. generateIMEI picks one so synthetic IMEIs look like real ones.
var tacCodes = []string{
	"35391805", // Samsung Nexus S
	"35896704", // Samsung Galaxy S II
	"35824005", // HTC Desire
	"35690404", // Sony Ericsson Xperia
	"35803106", // Sharp AQUOS
}

func randDigits(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('0' + rng.Intn(10))
	}
	return string(b)
}

// generateIMEI returns a 15-digit IMEI: 8-digit TAC, 6-digit serial,
// Luhn check digit.
func generateIMEI(rng *rand.Rand) string {
	body := tacCodes[rng.Intn(len(tacCodes))] + randDigits(rng, 6)
	return body + string(luhnCheckDigit(body))
}

// generateIMSI returns a 15-digit IMSI for the carrier: MCC (3) + MNC (2) +
// MSIN (10).
func generateIMSI(rng *rand.Rand, c Carrier) string {
	return c.MCC + c.MNC + randDigits(rng, 10)
}

// generateICCID returns a 19-digit SIM serial: "8981" (telecom prefix +
// Japan country code) + 14 digits + Luhn check digit.
func generateICCID(rng *rand.Rand) string {
	body := "8981" + randDigits(rng, 14)
	return body + string(luhnCheckDigit(body))
}

const hexDigits = "0123456789abcdef"

// generateAndroidID returns the 16-hex-character Android ID generated at
// first boot.
func generateAndroidID(rng *rand.Rand) string {
	b := make([]byte, 16)
	for i := range b {
		b[i] = hexDigits[rng.Intn(16)]
	}
	return string(b)
}

// UserAgent returns the Dalvik HTTP User-Agent string this device's stack
// would send, matching the Android 2.3-era format.
func (d *Device) UserAgent() string {
	return fmt.Sprintf("Dalvik/1.4.0 (Linux; U; Android %s; %s Build/GRJ22)", d.OSVersion, d.Model)
}

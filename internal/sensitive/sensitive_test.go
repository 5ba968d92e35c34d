package sensitive

import (
	"math/rand"
	"strings"
	"testing"

	"leaksig/internal/android"
	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
)

func testDevice() *android.Device {
	return android.NewDevice(rand.New(rand.NewSource(1)), android.CarrierDocomo)
}

func testOracle() *Oracle { return NewOracle(testDevice()) }

func TestHashHelpers(t *testing.T) {
	if got := MD5Hex("abc"); got != "900150983cd24fb0d6963f7d28e17f72" {
		t.Errorf("MD5Hex = %s", got)
	}
	if got := SHA1Hex("abc"); got != "a9993e364706816aba3e25717850c26c9cd0d89d" {
		t.Errorf("SHA1Hex = %s", got)
	}
}

func TestKindStrings(t *testing.T) {
	if KindAndroidID.String() != "ANDROID ID" {
		t.Errorf("KindAndroidID = %q", KindAndroidID)
	}
	if KindSIMSerial.String() != "SIM Serial ID" {
		t.Errorf("KindSIMSerial = %q", KindSIMSerial)
	}
	if Kind(99).String() != "UNKNOWN" {
		t.Error("out-of-range kind")
	}
	if NumKinds != 9 {
		t.Errorf("NumKinds = %d, want 9", NumKinds)
	}
}

func TestScanEachKind(t *testing.T) {
	o := testOracle()
	d := testDevice()
	cases := []struct {
		payload string
		want    Kind
	}{
		{"android_id=" + d.AndroidID, KindAndroidID},
		{"aid=" + MD5Hex(d.AndroidID), KindAndroidIDMD5},
		{"aid=" + SHA1Hex(d.AndroidID), KindAndroidIDSHA1},
		{"carrier=" + d.Carrier.Name, KindCarrier},
		{"imei=" + d.IMEI, KindIMEI},
		{"di=" + MD5Hex(d.IMEI), KindIMEIMD5},
		{"di=" + SHA1Hex(d.IMEI), KindIMEISHA1},
		{"imsi=" + d.IMSI, KindIMSI},
		{"sim=" + d.SIMSerial, KindSIMSerial},
	}
	for _, c := range cases {
		p := httpmodel.Get("x.example", "/t?"+c.payload).
			Dest(ipaddr.MustParse("192.0.2.1"), 80).Build()
		got := o.Scan(p)
		found := false
		for _, k := range got {
			if k == c.want {
				found = true
			}
		}
		if !found {
			t.Errorf("Scan(%q) = %v, want to include %v", c.payload, got, c.want)
		}
	}
}

func TestScanUppercaseHash(t *testing.T) {
	o := testOracle()
	up := strings.ToUpper(MD5Hex(testDevice().IMEI))
	p := httpmodel.Get("x.example", "/t?h="+up).Dest(1, 80).Build()
	kinds := o.Scan(p)
	if len(kinds) != 1 || kinds[0] != KindIMEIMD5 {
		t.Errorf("Scan(uppercase md5) = %v", kinds)
	}
}

func TestScanCarrierCaseVariants(t *testing.T) {
	o := testOracle()
	for _, v := range []string{"NTTDOCOMO", "nttdocomo"} {
		p := httpmodel.Get("x.example", "/t?c="+v).Dest(1, 80).Build()
		if !o.IsSensitive(p) {
			t.Errorf("carrier variant %q not detected", v)
		}
	}
}

func TestScanBenignPacket(t *testing.T) {
	o := testOracle()
	p := httpmodel.Get("gstatic.com", "/images/logo.png").
		Dest(ipaddr.MustParse("198.51.100.4"), 80).
		UserAgent(testDevice().UserAgent()).
		Build()
	if o.IsSensitive(p) {
		t.Errorf("benign packet flagged: %v", o.Scan(p))
	}
}

func TestScanMultipleKindsOnePacket(t *testing.T) {
	// Mirrors the paper's §III-B observation: "ad-maker.info ... expect[s]
	// IMEI and Android ID" in a single request.
	o := testOracle()
	d := testDevice()
	p := httpmodel.Get("ad-maker.info", "/sdk/v1").
		Dest(ipaddr.MustParse("203.0.113.7"), 80).
		Query("imei", d.IMEI).
		Query("aid", d.AndroidID).
		Query("carrier", d.Carrier.Name).
		Build()
	kinds := o.Scan(p)
	if len(kinds) != 3 {
		t.Fatalf("Scan = %v, want 3 kinds", kinds)
	}
	// Kinds must come back in Table III order.
	for i := 1; i < len(kinds); i++ {
		if kinds[i-1] >= kinds[i] {
			t.Errorf("kinds unordered: %v", kinds)
		}
	}
}

func TestScanBodyAndCookie(t *testing.T) {
	o := testOracle()
	d := testDevice()
	inBody := httpmodel.Post("track.example", "/ev").
		Dest(1, 80).Form("udid", d.IMEI).Build()
	if !o.IsSensitive(inBody) {
		t.Error("IMEI in body not detected")
	}
	inCookie := httpmodel.Get("track.example", "/ev").
		Dest(1, 80).Cookie("device=" + d.AndroidID).Build()
	if !o.IsSensitive(inCookie) {
		t.Error("Android ID in cookie not detected")
	}
}

func TestOracleDistinguishesDevices(t *testing.T) {
	d1 := android.NewDevice(rand.New(rand.NewSource(1)), android.CarrierDocomo)
	d2 := android.NewDevice(rand.New(rand.NewSource(2)), android.CarrierDocomo)
	o1 := NewOracle(d1)
	p := httpmodel.Get("x.example", "/t?imei="+d2.IMEI).Dest(1, 80).Build()
	kinds := o1.Scan(p)
	for _, k := range kinds {
		if k == KindIMEI {
			t.Error("oracle for device 1 matched device 2's IMEI")
		}
	}
}

package android

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLuhnKnownValues(t *testing.T) {
	// 49015420323751 -> check digit 8 (classic IMEI example).
	if got := luhnCheckDigit("49015420323751"); got != '8' {
		t.Errorf("luhnCheckDigit = %c, want 8", got)
	}
	if !luhnValid("490154203237518") {
		t.Error("luhnValid(known IMEI) = false")
	}
	if luhnValid("490154203237519") {
		t.Error("luhnValid(corrupted IMEI) = true")
	}
	if luhnValid("") || luhnValid("5") || luhnValid("12a4") {
		t.Error("luhnValid accepted malformed input")
	}
}

func TestLuhnAppendProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		body := randDigits(rng, 1+rng.Intn(20))
		full := body + string(luhnCheckDigit(body))
		if !luhnValid(full) {
			t.Fatalf("luhnValid(%q) = false", full)
		}
		// Mutating any single digit must break the check.
		pos := rng.Intn(len(full))
		mut := []byte(full)
		mut[pos] = byte('0' + (int(mut[pos]-'0')+1+rng.Intn(8))%10)
		if string(mut) != full && luhnValid(string(mut)) {
			t.Fatalf("luhnValid accepted single-digit mutation %q of %q", mut, full)
		}
	}
}

func TestLuhnPanicsOnNonDigit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	luhnCheckDigit("12x4")
}

func TestGenerateIMEI(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	seen := make(map[string]bool)
	for i := 0; i < 200; i++ {
		imei := generateIMEI(rng)
		if len(imei) != 15 {
			t.Fatalf("IMEI length = %d", len(imei))
		}
		if !luhnValid(imei) {
			t.Fatalf("IMEI %q fails Luhn", imei)
		}
		tacOK := false
		for _, tac := range tacCodes {
			if strings.HasPrefix(imei, tac) {
				tacOK = true
			}
		}
		if !tacOK {
			t.Fatalf("IMEI %q has unknown TAC", imei)
		}
		seen[imei] = true
	}
	if len(seen) < 190 {
		t.Errorf("IMEI collisions: only %d distinct of 200", len(seen))
	}
}

func TestGenerateIMSI(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	imsi := generateIMSI(rng, CarrierDocomo)
	if len(imsi) != 15 {
		t.Fatalf("IMSI length = %d", len(imsi))
	}
	if !strings.HasPrefix(imsi, "44010") {
		t.Errorf("IMSI %q missing docomo MCC+MNC", imsi)
	}
}

func TestGenerateICCID(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		iccid := generateICCID(rng)
		if len(iccid) != 19 {
			t.Fatalf("ICCID length = %d", len(iccid))
		}
		if !strings.HasPrefix(iccid, "8981") {
			t.Errorf("ICCID %q missing 8981 prefix", iccid)
		}
		if !luhnValid(iccid) {
			t.Errorf("ICCID %q fails Luhn", iccid)
		}
	}
}

func TestGenerateAndroidID(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	id := generateAndroidID(rng)
	if len(id) != 16 {
		t.Fatalf("AndroidID length = %d", len(id))
	}
	for _, c := range id {
		if !strings.ContainsRune(hexDigits, c) {
			t.Fatalf("AndroidID %q has non-hex char", id)
		}
	}
}

func TestNewDeviceDeterministic(t *testing.T) {
	a := NewDevice(rand.New(rand.NewSource(77)), CarrierDocomo)
	b := NewDevice(rand.New(rand.NewSource(77)), CarrierDocomo)
	if *a != *b {
		t.Error("same seed produced different devices")
	}
	c := NewDevice(rand.New(rand.NewSource(78)), CarrierDocomo)
	if a.IMEI == c.IMEI && a.AndroidID == c.AndroidID {
		t.Error("different seeds produced identical identifiers")
	}
	if !strings.Contains(a.UserAgent(), "Android 2.3.4") {
		t.Errorf("UserAgent = %q", a.UserAgent())
	}
}

func TestSetOperations(t *testing.T) {
	s := NewSet(PermInternet, PermReadPhoneState)
	if !s.Has(PermInternet) || s.Has(PermReadContacts) {
		t.Error("Has failed")
	}
	if s.HasLocation() {
		t.Error("HasLocation false positive")
	}
	s[PermAccessCoarseLocation] = true
	if !s.HasLocation() {
		t.Error("HasLocation missed coarse location")
	}
}

func TestDangerousComboTableIRows(t *testing.T) {
	cases := []struct {
		perms []Permission
		want  Combo
	}{
		{[]Permission{PermInternet}, ComboInternetOnly},
		{[]Permission{PermInternet, "android.permission.VIBRATE"}, ComboInternetOnly},
		{[]Permission{PermInternet, PermReadPhoneState}, ComboInternetPhone},
		{[]Permission{PermInternet, PermAccessFineLocation, PermReadPhoneState}, ComboInternetLocationPhone},
		{[]Permission{PermInternet, PermAccessCoarseLocation}, ComboInternetLocation},
		{[]Permission{PermInternet, PermAccessFineLocation, PermReadPhoneState, PermReadContacts}, ComboInternetLocationPhoneContacts},
		{[]Permission{PermReadPhoneState}, ComboOther},             // no INTERNET
		{[]Permission{PermInternet, PermReadContacts}, ComboOther}, // off-table combo
		{[]Permission{}, ComboOther},
	}
	for i, c := range cases {
		m := &Manifest{Package: "p", Permissions: NewSet(c.perms...)}
		if got := m.DangerousCombo(); got != c.want {
			t.Errorf("case %d: combo = %v, want %v", i, got, c.want)
		}
	}
}

func TestComboString(t *testing.T) {
	if ComboInternetOnly.String() != "INTERNET" {
		t.Errorf("String = %q", ComboInternetOnly.String())
	}
	if !strings.Contains(Combo(99).String(), "99") {
		t.Error("unknown combo String")
	}
}

func TestIMSIAllCarriers(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, c := range Carriers() {
		imsi := generateIMSI(rng, c)
		if !strings.HasPrefix(imsi, c.MCC+c.MNC) {
			t.Errorf("IMSI %q missing %s%s for %s", imsi, c.MCC, c.MNC, c.Name)
		}
	}
}

func TestLuhnQuickCheckDigitIsDigit(t *testing.T) {
	f := func(n uint32) bool {
		rng := rand.New(rand.NewSource(int64(n)))
		body := randDigits(rng, 1+int(n%25))
		d := luhnCheckDigit(body)
		return d >= '0' && d <= '9'
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

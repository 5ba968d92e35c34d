// Package android simulates the slice of the Android platform the paper
// depends on: the permission framework (§II-B) and the device identity
// module that ad libraries read UDIDs from (§III-B).
//
// The paper's experiments ran on a Galaxy Nexus S with Android 2.3.x
// (API level ~10; the paper cites the API level 15 permission list). We
// model applications as manifests holding permission sets, and devices as
// carriers of the identifiers whose leakage the system detects.
package android

import "fmt"

// Permission is an Android manifest permission name.
type Permission string

// The permissions the paper's analysis groups applications by (Table I).
// LOCATION in the paper stands for either of the two location permissions.
const (
	PermInternet             Permission = "android.permission.INTERNET"
	PermAccessFineLocation   Permission = "android.permission.ACCESS_FINE_LOCATION"
	PermAccessCoarseLocation Permission = "android.permission.ACCESS_COARSE_LOCATION"
	PermReadPhoneState       Permission = "android.permission.READ_PHONE_STATE"
	PermReadContacts         Permission = "android.permission.READ_CONTACTS"
)

// Set is an unordered collection of permissions.
type Set map[Permission]bool

// NewSet builds a Set from its arguments.
func NewSet(ps ...Permission) Set {
	s := make(Set, len(ps))
	for _, p := range ps {
		s[p] = true
	}
	return s
}

// Has reports whether the permission is present.
func (s Set) Has(p Permission) bool { return s[p] }

// HasLocation reports whether either location permission is present. The
// paper's Table I treats fine and coarse location as one LOCATION column.
func (s Set) HasLocation() bool {
	return s[PermAccessFineLocation] || s[PermAccessCoarseLocation]
}

// Manifest is the permission-relevant part of an application's
// AndroidManifest.xml together with its sandbox identity.
type Manifest struct {
	Package     string // e.g. "com.example.game"
	UID         int    // unique Linux UID assigned at install (§II-A)
	Permissions Set
}

// DangerousCombo classifies a manifest into the rows of the paper's
// Table I. The five printed rows are, in order:
//
//	INTERNET only
//	INTERNET + PHONE STATE
//	INTERNET + LOCATION + PHONE STATE
//	INTERNET + LOCATION
//	INTERNET + LOCATION + PHONE STATE + CONTACTS
//
// Manifests without INTERNET, or with combinations outside the table
// (e.g. INTERNET + CONTACTS only), return ComboOther.
type Combo int

// Combo values mirror Table I rows; ComboOther covers everything else.
const (
	ComboInternetOnly Combo = iota
	ComboInternetPhone
	ComboInternetLocationPhone
	ComboInternetLocation
	ComboInternetLocationPhoneContacts
	ComboOther
)

var comboNames = [...]string{
	"INTERNET",
	"INTERNET+PHONE_STATE",
	"INTERNET+LOCATION+PHONE_STATE",
	"INTERNET+LOCATION",
	"INTERNET+LOCATION+PHONE_STATE+CONTACTS",
	"OTHER",
}

// String names the combination as in Table I.
func (c Combo) String() string {
	if int(c) < len(comboNames) {
		return comboNames[c]
	}
	return fmt.Sprintf("Combo(%d)", int(c))
}

// DangerousCombo returns the Table I row for this manifest.
func (m *Manifest) DangerousCombo() Combo {
	s := m.Permissions
	if !s.Has(PermInternet) {
		return ComboOther
	}
	loc, phone, contacts := s.HasLocation(), s.Has(PermReadPhoneState), s.Has(PermReadContacts)
	switch {
	case !loc && !phone && !contacts:
		return ComboInternetOnly
	case !loc && phone && !contacts:
		return ComboInternetPhone
	case loc && phone && !contacts:
		return ComboInternetLocationPhone
	case loc && !phone && !contacts:
		return ComboInternetLocation
	case loc && phone && contacts:
		return ComboInternetLocationPhoneContacts
	default:
		return ComboOther
	}
}

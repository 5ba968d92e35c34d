package trafficgen

import (
	"fmt"
	"math/rand"

	"leaksig/internal/android"
	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
	"leaksig/internal/sensitive"
)

// category classifies a destination's traffic.
type category int

// Categories.
const (
	catAdModule    category = iota // Table II ad service with an SDK
	catAdBeacon                    // long-tail tracking beacon (sensitive)
	catUUIDTracker                 // beacon using a per-install UUID (benign)
	catAnalytics
	catCDN
	catWebAPI
	catPortal
	catSocial
)

// String names the category.
func (c category) String() string {
	switch c {
	case catAdModule:
		return "ad-module"
	case catAdBeacon:
		return "ad-beacon"
	case catUUIDTracker:
		return "uuid-tracker"
	case catAnalytics:
		return "analytics"
	case catCDN:
		return "cdn"
	case catWebAPI:
		return "web-api"
	case catPortal:
		return "portal"
	case catSocial:
		return "social"
	default:
		return "unknown"
	}
}

// appInfo carries the per-application facts a module's client library can
// observe: the package name, granted permissions, and per-install values.
type appInfo struct {
	Package       string
	HasPhoneState bool
	HasLocation   bool
	// InstallUUID is a mutable per-install identifier — the privacy-
	// preserving alternative the paper advocates (§III-B). Benign trackers
	// transmit this instead of UDIDs.
	InstallUUID string
	// PubID is the application's publisher/slot identifier at ad services.
	PubID string
}

// buildCtx is the input to a profile's Build function.
type buildCtx struct {
	Rng    *rand.Rand
	Device *android.Device
	App    appInfo
}

// profile describes one destination.
type profile struct {
	Host     string
	IP       ipaddr.Addr
	Port     uint16
	Category category
	Org      string // owning organization (drives IP adjacency and WHOIS)

	// Calibration targets. For Table II rows these are the printed values;
	// tail profiles carry the family budgets divided per host.
	TargetPackets int
	TargetApps    int

	// Sensitive marks profiles whose Build can emit device identifiers.
	Sensitive bool
	// NeedsPhoneState biases app assignment toward applications holding
	// READ_PHONE_STATE so the module can actually read the IMEI family.
	NeedsPhoneState bool
	// Family groups hosts that run the same client library (e.g. the 75
	// plain-Android-ID beacon hosts). Signature generalization within a
	// family is what the detection sweep measures.
	Family string
	// HeavyOnly restricts assignment to the small set of high-fanout
	// applications (Table III's 21 plain-Android-ID apps; the paper's
	// embedded-browser outlier).
	HeavyOnly bool

	// Build fabricates one request from this destination's client library.
	Build func(ctx *buildCtx) *httpmodel.Packet
}

// ipAllocator hands out organization-adjacent address blocks: hosts of one
// organization land in one /16, different organizations in different /16s
// spread over several /8s. This realizes the property the destination
// distance exploits: "if the upper bits of IP addresses match ... there is
// a high possibility that the two destinations are managed by the same
// organization" (§IV-B).
type ipAllocator struct {
	orgBlock map[string]ipaddr.Block
	orgNext  map[string]uint64
	nextSlot int
}

func newIPAllocator() *ipAllocator {
	return &ipAllocator{
		orgBlock: make(map[string]ipaddr.Block),
		orgNext:  make(map[string]uint64),
	}
}

// Bases for organization /16 blocks; documentation/test ranges are avoided
// so addresses look like production allocations.
var allocBases = []byte{23, 64, 93, 103, 150, 173, 199, 210}

func (a *ipAllocator) addr(org string) ipaddr.Addr {
	blk, ok := a.orgBlock[org]
	if !ok {
		base := allocBases[a.nextSlot%len(allocBases)]
		second := byte(16 + (a.nextSlot/len(allocBases))*4 + a.nextSlot%3)
		blk = ipaddr.Block{Base: ipaddr.FromOctets(base, second, 0, 0), Bits: 16}
		a.orgBlock[org] = blk
		a.nextSlot++
	}
	n := a.orgNext[org]
	a.orgNext[org] = n + 1
	// Spread hosts across the /16 while staying inside it.
	return blk.Nth((n*257 + 10) % blk.Size())
}

// Block returns the block allocated to org, if any.
func (a *ipAllocator) block(org string) (ipaddr.Block, bool) {
	b, ok := a.orgBlock[org]
	return b, ok
}

// Universe is the full destination population for one device: all profiles
// plus the organization registry backing the WHOIS extension.
type Universe struct {
	profiles []*profile
	orgs     map[string]ipaddr.Block
}

// OrgBlocks returns the organization → address block registry.
func (u *Universe) OrgBlocks() map[string]ipaddr.Block {
	out := make(map[string]ipaddr.Block, len(u.orgs))
	for k, v := range u.orgs {
		out[k] = v
	}
	return out
}

// small value helpers shared by the builders

const hexAlphabet = "0123456789abcdef"

func randHex(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = hexAlphabet[rng.Intn(16)]
	}
	return string(b)
}

func randDigits(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('0' + rng.Intn(10))
	}
	return string(b)
}

func randInt(rng *rand.Rand, lo, hi int) string {
	return fmt.Sprintf("%d", lo+rng.Intn(hi-lo+1))
}

// md5AID / sha1AID / md5IMEI / sha1IMEI are the transformations §III-B
// describes: "some modules compute [the] UDID's hash with a cryptographic
// hash function at the time of transmission."
func md5AID(d *android.Device) string   { return sensitive.MD5Hex(d.AndroidID) }
func sha1AID(d *android.Device) string  { return sensitive.SHA1Hex(d.AndroidID) }
func md5IMEI(d *android.Device) string  { return sensitive.MD5Hex(d.IMEI) }
func sha1IMEI(d *android.Device) string { return sensitive.SHA1Hex(d.IMEI) }

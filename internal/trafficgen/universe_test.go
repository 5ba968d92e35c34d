package trafficgen

import (
	"math/rand"
	"strings"
	"testing"

	"leaksig/internal/android"
	"leaksig/internal/sensitive"
	"leaksig/internal/whois"
)

func testCtx(phoneState bool) *buildCtx {
	rng := rand.New(rand.NewSource(1))
	return &buildCtx{
		Rng:    rng,
		Device: android.NewDevice(rng, android.CarrierDocomo),
		App: appInfo{
			Package:       "com.example.app",
			HasPhoneState: phoneState,
			InstallUUID:   "0123456789abcdef0123456789abcdef",
			PubID:         "pub42",
		},
	}
}

func TestUniverseProfileInvariants(t *testing.T) {
	u := newUniverse(107859)
	if len(u.profiles) < 300 {
		t.Fatalf("profiles = %d", len(u.profiles))
	}
	hosts := make(map[string]bool)
	totalPkts := 0
	for _, p := range u.profiles {
		if p.Host == "" {
			t.Fatal("profile without host")
		}
		if hosts[p.Host] {
			t.Fatalf("duplicate host %s", p.Host)
		}
		hosts[p.Host] = true
		if p.IP == 0 {
			t.Errorf("%s has no IP", p.Host)
		}
		if p.Port != 80 {
			t.Errorf("%s port = %d", p.Host, p.Port)
		}
		if p.Org == "" {
			t.Errorf("%s has no org", p.Host)
		}
		if p.Build == nil {
			t.Fatalf("%s has no builder", p.Host)
		}
		if p.TargetApps <= 0 {
			t.Errorf("%s target apps = %d", p.Host, p.TargetApps)
		}
		totalPkts += p.TargetPackets
	}
	if totalPkts < 100000 || totalPkts > 110000 {
		t.Errorf("total target packets = %d", totalPkts)
	}
}

func TestUniverseScalesDown(t *testing.T) {
	u := newUniverse(10000)
	total := 0
	for _, p := range u.profiles {
		total += p.TargetPackets
	}
	if total > 10000 {
		t.Errorf("scaled universe claims %d packets, budget 10000", total)
	}
	if total < 8000 {
		t.Errorf("scaled universe claims only %d packets", total)
	}
}

func TestTableIITargetsPreserved(t *testing.T) {
	u := newUniverse(107859)
	byHost := make(map[string]*profile)
	for _, p := range u.profiles {
		byHost[p.Host] = p
	}
	for _, e := range tableIIEntries() {
		p, ok := byHost[e.host]
		if !ok {
			t.Fatalf("Table II host %s missing", e.host)
		}
		if p.TargetPackets != e.packets || p.TargetApps != e.apps {
			t.Errorf("%s targets = %d/%d, want %d/%d",
				e.host, p.TargetPackets, p.TargetApps, e.packets, e.apps)
		}
	}
}

func TestOrgAdjacency(t *testing.T) {
	// Hosts of one organization must share a /16; different organizations
	// must not collide — the property the destination IP distance exploits.
	u := newUniverse(107859)
	blocks := u.OrgBlocks()
	if len(blocks) < 50 {
		t.Fatalf("orgs = %d", len(blocks))
	}
	for _, p := range u.profiles {
		blk, ok := blocks[p.Org]
		if !ok {
			t.Fatalf("org %s missing from registry", p.Org)
		}
		if !blk.Contains(p.IP) {
			t.Errorf("%s IP %s outside org block %s", p.Host, p.IP, blk)
		}
	}
	// Google hosts (6 Table II rows) share one block.
	var google *profile
	for _, p := range u.profiles {
		if p.Host == "google.com" {
			google = p
		}
	}
	for _, p := range u.profiles {
		if p.Org == "Google" && blocks["Google"] != blocks[google.Org] {
			t.Error("google org block inconsistent")
		}
	}
}

func TestSensitiveModulesEmitExpectedKinds(t *testing.T) {
	u := newUniverse(107859)
	ctx := testCtx(true)
	oracle := sensitive.NewOracle(ctx.Device)
	wantKinds := map[string]sensitive.Kind{
		"ad-maker.info":         sensitive.KindAndroidID,
		"mydas.mobi":            sensitive.KindAndroidID,
		"admob.com":             sensitive.KindAndroidIDMD5,
		"googlesyndication.com": sensitive.KindAndroidIDMD5,
		"i-mobile.co.jp":        sensitive.KindAndroidIDMD5,
		"nend.net":              sensitive.KindAndroidIDMD5,
		"flurry.com":            sensitive.KindAndroidIDSHA1,
		"amoad.com":             sensitive.KindIMEIMD5,
		"adwhirl.com":           sensitive.KindIMEISHA1,
		"mobclix.com":           sensitive.KindIMEISHA1,
		"zqapk.com":             sensitive.KindIMSI,
	}
	byHost := make(map[string]*profile)
	for _, p := range u.profiles {
		byHost[p.Host] = p
	}
	for host, want := range wantKinds {
		p, ok := byHost[host]
		if !ok {
			t.Fatalf("host %s missing", host)
		}
		pkt := p.Build(ctx)
		kinds := oracle.Scan(pkt)
		found := false
		for _, k := range kinds {
			if k == want {
				found = true
			}
		}
		if !found {
			t.Errorf("%s emitted %v, want to include %v\npacket: %s", host, kinds, want, pkt.RequestLine())
		}
	}
}

func TestIMEIModulesRespectPermission(t *testing.T) {
	u := newUniverse(107859)
	noPhone := testCtx(false)
	oracle := sensitive.NewOracle(noPhone.Device)
	imeiKinds := map[sensitive.Kind]bool{
		sensitive.KindIMEI: true, sensitive.KindIMEIMD5: true,
		sensitive.KindIMEISHA1: true, sensitive.KindIMSI: true,
		sensitive.KindSIMSerial: true,
	}
	for _, host := range []string{"ad-maker.info", "mydas.mobi", "medibaad.com", "adlantis.jp", "amoad.com", "adwhirl.com", "mobclix.com"} {
		var p *profile
		for _, q := range u.profiles {
			if q.Host == host {
				p = q
			}
		}
		pkt := p.Build(noPhone)
		for _, k := range oracle.Scan(pkt) {
			if imeiKinds[k] {
				t.Errorf("%s emitted %v without READ_PHONE_STATE", host, k)
			}
		}
	}
}

func TestBenignBuildersNeverLeak(t *testing.T) {
	u := newUniverse(107859)
	ctx := testCtx(true)
	oracle := sensitive.NewOracle(ctx.Device)
	for _, p := range u.profiles {
		if p.Sensitive {
			continue
		}
		for i := 0; i < 5; i++ {
			pkt := p.Build(ctx)
			if kinds := oracle.Scan(pkt); len(kinds) > 0 {
				t.Fatalf("benign profile %s (%v) leaked %v: %s",
					p.Host, p.Category, kinds, pkt.RequestLine())
			}
		}
	}
}

func TestAllBuildersProduceValidPackets(t *testing.T) {
	u := newUniverse(107859)
	for _, phone := range []bool{true, false} {
		ctx := testCtx(phone)
		for _, p := range u.profiles {
			pkt := p.Build(ctx)
			pkt.Host = p.Host // builders set Host; keep consistent
			if err := pkt.Validate(); err != nil {
				t.Fatalf("profile %s (phone=%v): %v", p.Host, phone, err)
			}
			if pkt.Host != p.Host {
				t.Fatalf("profile %s built packet for host %s", p.Host, pkt.Host)
			}
		}
	}
}

func TestVendorSkeletonsShareSyntaxWithinVendor(t *testing.T) {
	// Beacon hosts of one vendor must share their path; UUID trackers of
	// the same vendor must share it too (that is what makes skeleton-only
	// signatures false-positive against them).
	u := newUniverse(107859)
	ctx := testCtx(true)
	pathOf := func(p *profile) string {
		pkt := p.Build(ctx)
		path := pkt.Path
		if i := strings.IndexByte(path, '?'); i >= 0 {
			path = path[:i]
		}
		return path
	}
	vendorPaths := map[string]string{}
	for _, p := range u.profiles {
		switch p.Family {
		case "md5-beacon", "imei-beacon":
			vendorPaths["a:"+pathOf(p)] = p.Family
		case "sha1-beacon", "imeimd5-beacon":
			vendorPaths["b:"+pathOf(p)] = p.Family
		case "aid-beacon", "imeisha1-beacon":
			vendorPaths["c:"+pathOf(p)] = p.Family
		}
	}
	counts := map[byte]int{}
	for k := range vendorPaths {
		counts[k[0]]++
	}
	for v, n := range counts {
		if n != 1 {
			t.Errorf("vendor %c has %d distinct paths, want 1", v, n)
		}
	}
	// UUID trackers reuse those paths.
	for _, p := range u.profiles {
		if p.Category != catUUIDTracker {
			continue
		}
		path := pathOf(p)
		found := false
		for k := range vendorPaths {
			if strings.HasSuffix(k, ":"+path) {
				found = true
			}
		}
		if !found {
			t.Errorf("uuid tracker %s path %s matches no vendor skeleton", p.Host, path)
		}
	}
}

func TestBridgeHostsShareOrg(t *testing.T) {
	u := newUniverse(107859)
	orgsByVendorOrg := map[string][]string{}
	for _, p := range u.profiles {
		if strings.HasPrefix(p.Org, "vendor-") {
			orgsByVendorOrg[p.Org] = append(orgsByVendorOrg[p.Org], p.Family)
		}
	}
	if len(orgsByVendorOrg) != 3 {
		t.Fatalf("holding orgs = %d, want 3", len(orgsByVendorOrg))
	}
	for org, families := range orgsByVendorOrg {
		distinct := map[string]bool{}
		for _, f := range families {
			distinct[f] = true
		}
		if len(distinct) < 2 {
			t.Errorf("holding org %s hosts only families %v; bridge needs 2 kinds", org, families)
		}
	}
}

func TestHostTokenStable(t *testing.T) {
	a := hostToken("d01.adpulse-trk.info")
	b := hostToken("d01.adpulse-trk.info")
	c := hostToken("d02.adpulse-trk.info")
	if a != b {
		t.Error("hostToken not deterministic")
	}
	if a == c {
		t.Error("hostToken collides on sibling hosts")
	}
	if len(a) != 6 {
		t.Errorf("hostToken length = %d", len(a))
	}
}

func TestCategoryString(t *testing.T) {
	names := map[category]string{
		catAdModule: "ad-module", catAdBeacon: "ad-beacon",
		catUUIDTracker: "uuid-tracker", catAnalytics: "analytics",
		catCDN: "cdn", catWebAPI: "web-api", catPortal: "portal",
		catSocial: "social", category(99): "unknown",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("Category(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestIPAllocatorSeparatesOrgs(t *testing.T) {
	a := newIPAllocator()
	ip1 := a.addr("org-one")
	ip2 := a.addr("org-one")
	ip3 := a.addr("org-two")
	b1, _ := a.block("org-one")
	b2, _ := a.block("org-two")
	if !b1.Contains(ip1) || !b1.Contains(ip2) {
		t.Error("same-org addresses outside block")
	}
	if b1.Overlaps(b2) {
		t.Error("org blocks overlap")
	}
	if b2.Contains(ip1) || b1.Contains(ip3) {
		t.Error("cross-org containment")
	}
	if ip1 == ip2 {
		t.Error("duplicate address within org")
	}
}

func TestRegistryOverUniverse(t *testing.T) {
	// The synthetic universe's allocation must be self-consistent: every
	// profile's address resolves to its own organization.
	u := newUniverse(107859)
	reg := whois.NewRegistry(u.OrgBlocks())
	if reg.Len() == 0 {
		t.Fatal("empty registry")
	}
	for _, p := range u.profiles {
		rec, ok := reg.Lookup(p.IP)
		if !ok {
			t.Fatalf("profile %s (%s) unresolvable", p.Host, p.IP)
		}
		if rec.Org != p.Org {
			t.Fatalf("profile %s resolves to %q, want %q", p.Host, rec.Org, p.Org)
		}
	}
	// Bridge hosts of one holding org must be confirmable; hosts of
	// different orgs sharing a /8 must be refutable at 8 bits under the
	// right pairs. Count outcomes over a sample of profile pairs.
	confirmed, refuted := 0, 0
	ps := u.profiles
	for i := 0; i < len(ps); i += 7 {
		for j := i + 1; j < len(ps); j += 13 {
			switch reg.VerifyCloseness(ps[i].IP, ps[j].IP, 8) {
			case whois.Confirmed:
				confirmed++
			case whois.Refuted:
				refuted++
			}
		}
	}
	if confirmed == 0 || refuted == 0 {
		t.Errorf("verification outcomes degenerate: %d confirmed, %d refuted", confirmed, refuted)
	}
}

package trafficgen

// This file fabricates the long tail of destinations behind Table II's
// named rows: the paper's applications contacted far more hosts than the 26
// listed (mean 7.9 destinations over 1,188 apps), and Table III counts
// sensitive information flowing to up to 94 distinct hosts per identifier
// type. The tail contains
//
//   - beacon families: white-label tracking SDKs resold across many small
//     hosts. Three SDK vendors exist; hosts of one vendor share a request
//     skeleton. Most hosts additionally embed a fixed per-host endpoint
//     token (ep=...), so a cluster drawn from one host yields a signature
//     specific to that host — the micro generalization units behind the
//     paper's residual false negatives. Two hosts per vendor of *different*
//     identifier kinds are operated by one holding organization on adjacent
//     addresses with sibling hostnames: clusters bridging them lose every
//     value token and degrade to skeleton-only signatures, the generic-
//     signature hazard §VI discusses — and the source of false positives
//     that grow with N;
//   - the zqapk family: the paper's example module expecting "IMEI, and SIM
//     Serial ID, and Carrier name";
//   - UUID tracker families: the same vendor skeletons carrying a mutable
//     per-install UUID instead of a UDID (the design the paper advocates),
//     benign under the payload check and matched only by degraded
//     skeleton-only signatures; and
//   - assorted benign Web APIs, CDNs, portals and game backends.

import (
	"fmt"

	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
)

// Calibration constants for the tail. TestTableIIISensitiveComposition in
// internal/trafficgen logs the generated count of each leak kind beside the
// paper's Table III figure.
const (
	aidBeaconHosts, aidBeaconPkts           = 75, 1200
	md5BeaconHosts, md5BeaconPkts           = 8, 2180
	sha1BeaconHosts, sha1BeaconPkts         = 8, 900
	imeiBeaconHosts, imeiBeaconPkts         = 80, 640
	imeiMD5BeaconHosts, imeiMD5BeaconPkts   = 4, 120
	imeiSHA1BeaconHosts, imeiSHA1BeaconPkts = 5, 260
	zqapkHosts, zqapkPkts                   = 20, 700
	benignTailHosts                         = 120
)

var tailNameWords = []string{
	"sakura", "hikari", "midori", "aozora", "kaze", "yuki", "hoshi",
	"umi", "mori", "tsuki", "hana", "sora", "kumo", "taiyo", "kawa",
	"yama", "tori", "neko", "inu", "momiji", "fuji", "nami", "ishi",
	"take", "matsu", "kin", "gin", "aka", "shiro", "kuro",
}

var tailAdWords = []string{
	"adpulse", "clickmesh", "tapgrid", "bannerline", "admix", "pingad",
	"trackone", "sparkad", "medialift", "adreach", "impact", "relay",
}

func tailWord(i int) string   { return tailNameWords[i%len(tailNameWords)] }
func tailAdWord(i int) string { return tailAdWords[i%len(tailAdWords)] }

// hostToken derives the fixed per-host endpoint identifier embedded in a
// host's requests (6 base-36 characters from an FNV hash of the hostname).
func hostToken(host string) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	h := uint64(14695981039346656037)
	for i := 0; i < len(host); i++ {
		h ^= uint64(host[i])
		h *= 1099511628211
	}
	b := make([]byte, 6)
	for i := range b {
		b[i] = alphabet[h%36]
		h /= 36
	}
	return string(b)
}

// vendor identifies one white-label SDK syntax.
type vendor int

const (
	vendorA vendor = iota // GET /v1/imp?pub&dev&sz&c[&ep]
	vendorB               // GET /sdk/track?key&device_id&fmt&r[&ep]
	vendorC               // POST /collect  app&did&ver&nonce[&ep]
)

// vendorSkeleton emits one request in the vendor's syntax. dev carries the
// identifier value; ep is the per-host endpoint token ("" omits it).
func vendorSkeleton(v vendor, ctx *buildCtx, host, dev, ep string) *httpmodel.Packet {
	switch v {
	case vendorA:
		b := httpmodel.Get(host, "/v1/imp").
			Query("pub", ctx.App.PubID).
			Query("dev", dev).
			Query("sz", "320x50").
			Query("c", randHex(ctx.Rng, 8))
		if ep != "" {
			b.Query("ep", ep)
		}
		return b.UserAgent(ctx.Device.UserAgent()).Build()
	case vendorB:
		b := httpmodel.Get(host, "/sdk/track").
			Query("key", ctx.App.PubID).
			Query("device_id", dev).
			Query("fmt", "gif").
			Query("r", randHex(ctx.Rng, 8))
		if ep != "" {
			b.Query("ep", ep)
		}
		return b.UserAgent(ctx.Device.UserAgent()).Build()
	default:
		pairs := []string{
			"app", ctx.App.PubID,
			"did", dev,
			"ver", "3",
			"nonce", randHex(ctx.Rng, 8),
		}
		if ep != "" {
			pairs = append(pairs, "ep", ep)
		}
		return httpmodel.Post(host, "/collect").
			Form(pairs...).
			UserAgent(ctx.Device.UserAgent()).Build()
	}
}

type beaconFamily struct {
	family     string
	hosts      int
	packets    int
	appsPer    int
	heavy      bool
	phone      bool
	vendor     vendor
	perHost    bool   // embed the fixed ep token (per-host generalization unit)
	bridge     int    // leading hosts placed in the vendor's holding org
	bridgePkts int    // per-bridge-host packet budget (0: equal share)
	hostFmt    string // printf pattern over host index
	devValue   func(ctx *buildCtx) string
}

func beaconFamilies() []beaconFamily {
	return []beaconFamily{
		{
			// One exact template family-wide: a single sampled pair covers
			// every md5-beacon host.
			family: "md5-beacon", hosts: md5BeaconHosts, packets: md5BeaconPkts,
			appsPer: 25, vendor: vendorA, bridge: 2, bridgePkts: 80,
			hostFmt:  "t%02d.%s-media.jp",
			devValue: func(ctx *buildCtx) string { return md5AID(ctx.Device) },
		},
		{
			// Per-host endpoint tokens over many tiny hosts: each host is
			// its own generalization unit, the micro tail behind the
			// persistent false negatives.
			family: "imei-beacon", hosts: imeiBeaconHosts, packets: imeiBeaconPkts,
			appsPer: 3, phone: true, vendor: vendorA, perHost: true, bridge: 2, bridgePkts: 50,
			hostFmt:  "d%02d.%s-trk.info",
			devValue: func(ctx *buildCtx) string { return ctx.Device.IMEI },
		},
		{
			family: "sha1-beacon", hosts: sha1BeaconHosts, packets: sha1BeaconPkts,
			appsPer: 15, vendor: vendorB, bridge: 2, bridgePkts: 80,
			hostFmt:  "s%02d.%s-analytics.com",
			devValue: func(ctx *buildCtx) string { return sha1AID(ctx.Device) },
		},
		{
			family: "imeimd5-beacon", hosts: imeiMD5BeaconHosts, packets: imeiMD5BeaconPkts,
			appsPer: 12, phone: true, vendor: vendorB, perHost: true, bridge: 2, bridgePkts: 30,
			hostFmt:  "m%02d.%s-adserv.net",
			devValue: func(ctx *buildCtx) string { return md5IMEI(ctx.Device) },
		},
		{
			// The plain-Android-ID beacons share one exact template (no ep):
			// the whole family is one generalization unit, reached by the
			// paper's 21 high-fanout applications.
			family: "aid-beacon", hosts: aidBeaconHosts, packets: aidBeaconPkts,
			appsPer: 4, heavy: true, vendor: vendorC, bridge: 2, bridgePkts: 80,
			hostFmt:  "b%02d.%s-net.asia",
			devValue: func(ctx *buildCtx) string { return ctx.Device.AndroidID },
		},
		{
			family: "imeisha1-beacon", hosts: imeiSHA1BeaconHosts, packets: imeiSHA1BeaconPkts,
			appsPer: 12, phone: true, vendor: vendorC, perHost: true, bridge: 2, bridgePkts: 45,
			hostFmt:  "h%02d.%s-metrics.com",
			devValue: func(ctx *buildCtx) string { return sha1IMEI(ctx.Device) },
		},
	}
}

// uuidTrackerFamily places benign per-install-UUID trackers on each vendor
// skeleton; only degraded skeleton-only signatures can match them.
type uuidTrackerFamily struct {
	vendor  vendor
	hosts   int
	packets int
}

func uuidTrackerFamilies() []uuidTrackerFamily {
	return []uuidTrackerFamily{
		{vendorA, 2, 500},
		{vendorB, 3, 750},
		{vendorC, 3, 750},
	}
}

// bridgeHostNames gives the holding organization's sibling hostnames per
// vendor: similar names on adjacent addresses make different-kind bridge
// hosts merge at the clustering threshold.
var bridgeHostNames = map[vendor][2]string{
	vendorA: {"img%d.adsrv-one.jp", "trk%d.adsrv-one.jp"},
	vendorB: {"img%d.pixel-gate.jp", "trk%d.pixel-gate.jp"},
	vendorC: {"img%d.collect-hub.jp", "trk%d.collect-hub.jp"},
}

func bridgeOrg(v vendor) string {
	return fmt.Sprintf("vendor-%c-holdings", 'a'+int(v))
}

// bridgeSlot tracks how many bridge hosts a vendor has placed so the two
// families of one vendor get sibling names from the same table.
type bridgeSlots map[vendor]int

func (bs bridgeSlots) hostName(v vendor, i int) string {
	slot := bs[v]
	bs[v] = slot + 1
	return fmt.Sprintf(bridgeHostNames[v][slot%2], slot/2+1)
}

// buildZqapk mirrors the paper's zqapk.com example: "zqapk.com expects
// IMEI, and SIM Serial ID, and Carrier name" — we additionally give it the
// IMSI, the only place Table III's IMSI traffic can plausibly come from.
func buildZqapk(ctx *buildCtx, host string) *httpmodel.Packet {
	b := httpmodel.Get(host, "/u/reg").
		Query("imsi", ctx.Device.IMSI)
	if ctx.Rng.Float64() < 0.50 {
		b.Query("sim", ctx.Device.SIMSerial)
	}
	if ctx.Rng.Float64() < 0.60 {
		b.Query("carrier", ctx.Device.Carrier.Name)
	}
	if ctx.Rng.Float64() < 0.35 {
		b.Query("imei", ctx.Device.IMEI)
	}
	return b.Query("ch", ctx.App.PubID).
		Query("ep", hostToken(host)).
		UserAgent(ctx.Device.UserAgent()).Build()
}

// benign tail builders, one per category rotation slot.

func buildTailAPI(ctx *buildCtx, host string) *httpmodel.Packet {
	res := []string{"items", "list", "detail", "rank", "config"}[ctx.Rng.Intn(5)]
	return httpmodel.Get(host, "/v2/"+res).
		Query("format", "json").
		Query("lang", "ja").
		Query("page", randInt(ctx.Rng, 1, 50)).
		Query("sid", randHex(ctx.Rng, 16)).
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildTailCDN(ctx *buildCtx, host string) *httpmodel.Packet {
	return httpmodel.Get(host, "/assets/img/"+tailWord(ctx.Rng.Intn(999))+randInt(ctx.Rng, 1, 500)+".jpg").
		Header("Accept", "image/*").
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildTailNews(ctx *buildCtx, host string) *httpmodel.Packet {
	cat := []string{"sports", "enta", "it", "keizai", "kokusai"}[ctx.Rng.Intn(5)]
	return httpmodel.Get(host, "/news/"+cat+"/article-"+randInt(ctx.Rng, 1000, 99999)+".html").
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildTailGame(ctx *buildCtx, host string) *httpmodel.Packet {
	return httpmodel.Post(host, "/v1/score").
		Form(
			"stage", randInt(ctx.Rng, 1, 60),
			"score", randDigits(ctx.Rng, 6),
			"session", randHex(ctx.Rng, 16),
		).
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildTailWeather(ctx *buildCtx, host string) *httpmodel.Packet {
	city := []string{"tokyo", "osaka", "nagoya", "sapporo", "fukuoka", "sendai"}[ctx.Rng.Intn(6)]
	return httpmodel.Get(host, "/api/weather").
		Query("city", city).
		Query("units", "metric").
		Query("os", "android").
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildTailSNS(ctx *buildCtx, host string) *httpmodel.Packet {
	return httpmodel.Get(host, "/api/feed").
		Query("user", ctx.App.InstallUUID).
		Query("count", "20").
		Query("since", randDigits(ctx.Rng, 10)).
		UserAgent(ctx.Device.UserAgent()).Build()
}

// newUniverse assembles every destination profile for one device: Table II
// rows, beacon families, the zqapk family, UUID trackers, and the benign
// tail. totalPackets is the full trace size (the paper's 107,859); the
// benign tail absorbs whatever the calibrated families do not claim.
func newUniverse(totalPackets int) *Universe {
	alloc := newIPAllocator()
	u := &Universe{}
	claimed := 0

	addProfile := func(p *profile) {
		p.IP = alloc.addr(p.Org)
		if p.Port == 0 {
			p.Port = 80
		}
		u.profiles = append(u.profiles, p)
		claimed += p.TargetPackets
	}

	for _, e := range tableIIEntries() {
		e := e
		addProfile(&profile{
			Host:            e.host,
			Category:        e.category,
			Org:             e.org,
			TargetPackets:   e.packets,
			TargetApps:      e.apps,
			Sensitive:       e.sensitive,
			NeedsPhoneState: e.needsPhoneState,
			Family:          e.host,
			Build: func(ctx *buildCtx) *httpmodel.Packet {
				return e.build(ctx, e.host)
			},
		})
	}

	slots := make(bridgeSlots)
	for fi, f := range beaconFamilies() {
		f := f
		rest := f.packets
		restHosts := f.hosts
		if f.bridgePkts > 0 {
			rest -= f.bridge * f.bridgePkts
			restHosts -= f.bridge
			if rest < 0 {
				rest = 0
			}
		}
		per, extra := 0, 0
		if restHosts > 0 {
			per = rest / restHosts
			extra = rest % restHosts
		}
		for i := 0; i < f.hosts; i++ {
			var host, org string
			if i < f.bridge {
				host = slots.hostName(f.vendor, i)
				org = bridgeOrg(f.vendor)
			} else {
				host = fmt.Sprintf(f.hostFmt, i+1, tailAdWord(fi*7+i))
				org = fmt.Sprintf("%s-org-%d", f.family, i)
			}
			ep := ""
			if f.perHost {
				ep = hostToken(host)
			}
			var pkts int
			if i < f.bridge && f.bridgePkts > 0 {
				pkts = f.bridgePkts
			} else {
				pkts = per
				if i-f.bridge < extra {
					pkts++
				}
			}
			v, dev := f.vendor, f.devValue
			addProfile(&profile{
				Host:            host,
				Category:        catAdBeacon,
				Org:             org,
				TargetPackets:   pkts,
				TargetApps:      f.appsPer,
				Sensitive:       true,
				NeedsPhoneState: f.phone,
				Family:          f.family,
				HeavyOnly:       f.heavy,
				Build: func(ctx *buildCtx) *httpmodel.Packet {
					return vendorSkeleton(v, ctx, host, dev(ctx), ep)
				},
			})
		}
	}

	for i := 0; i < zqapkHosts; i++ {
		host := "zqapk.com"
		if i > 0 {
			host = fmt.Sprintf("u%d.zq%s.com", i, tailAdWord(i))
		}
		addProfile(&profile{
			Host:            host,
			Category:        catAdBeacon,
			Org:             fmt.Sprintf("zqapk-org-%d", i),
			TargetPackets:   zqapkPkts / zqapkHosts,
			TargetApps:      2,
			Sensitive:       true,
			NeedsPhoneState: true,
			Family:          "zqapk",
			Build: func(ctx *buildCtx) *httpmodel.Packet {
				return buildZqapk(ctx, host)
			},
		})
	}

	for ti, tf := range uuidTrackerFamilies() {
		for i := 0; i < tf.hosts; i++ {
			host := fmt.Sprintf("c%02d.%s-audience.net", ti*4+i+1, tailAdWord(ti*5+i+3))
			v := tf.vendor
			addProfile(&profile{
				Host:          host,
				Category:      catUUIDTracker,
				Org:           fmt.Sprintf("uuidtrk-org-%d-%d", ti, i),
				TargetPackets: tf.packets / tf.hosts,
				TargetApps:    25,
				Family:        fmt.Sprintf("uuid-tracker-%c", 'a'+int(v)),
				Build: func(ctx *buildCtx) *httpmodel.Packet {
					return vendorSkeleton(v, ctx, host, ctx.App.InstallUUID, "")
				},
			})
		}
	}

	// Benign tail absorbs the remaining packet budget, spread proportional
	// to each host's app target.
	type tailSlot struct {
		cat   category
		build func(ctx *buildCtx, host string) *httpmodel.Packet
		fmt   string
		apps  int
	}
	tailSlots := []tailSlot{
		{catWebAPI, buildTailAPI, "api.%s-app.jp", 40},
		{catCDN, buildTailCDN, "img.%s-cdn.net", 30},
		{catPortal, buildTailNews, "www.%s-news.jp", 22},
		{catWebAPI, buildTailGame, "gs.%s-games.com", 18},
		{catWebAPI, buildTailWeather, "api.%s-weather.jp", 45},
		{catSocial, buildTailSNS, "sns.%s-talk.jp", 28},
	}
	remaining := totalPackets - claimed
	if remaining < 0 {
		remaining = 0
	}
	appWeights := make([]int, benignTailHosts)
	totalWeight := 0
	for i := range appWeights {
		s := tailSlots[i%len(tailSlots)]
		// Deterministic spread of app targets; sized so the benign tail
		// contributes the ~3,900 (app, destination) pairs that bring the
		// per-app mean to Figure 2's 7.9.
		appWeights[i] = 8 + (i*13)%s.apps + s.apps/3
		totalWeight += appWeights[i]
	}
	for i := 0; i < benignTailHosts; i++ {
		s := tailSlots[i%len(tailSlots)]
		host := fmt.Sprintf(s.fmt, tailWord(i)+string(rune('a'+i/len(tailNameWords))))
		build := s.build
		pkts := remaining * appWeights[i] / totalWeight
		addProfile(&profile{
			Host:          host,
			Category:      s.cat,
			Org:           fmt.Sprintf("tail-org-%d", i/3),
			TargetPackets: pkts,
			TargetApps:    appWeights[i],
			Family:        "benign-tail",
			Build: func(ctx *buildCtx) *httpmodel.Packet {
				return build(ctx, host)
			},
		})
	}

	// When the requested trace is smaller than the calibrated family
	// budgets (scaled-down runs), shrink every profile proportionally so
	// the configured total is honored.
	if totalPackets > 0 && claimed > totalPackets {
		for _, p := range u.profiles {
			p.TargetPackets = p.TargetPackets * totalPackets / claimed
		}
	}

	u.orgs = make(map[string]ipaddr.Block)
	for _, p := range u.profiles {
		if b, ok := alloc.block(p.Org); ok {
			u.orgs[p.Org] = b
		}
	}
	return u
}

package trafficgen

// This file defines the 26 named destinations of the paper's Table II with
// their printed packet/app targets, and request builders mimicking each
// service's 2012-era client library. The identifier each ad module
// transmits follows §III-B and Table III:
//
//	plain Android ID   — ad-maker.info, mydas.mobi, medibaad.com,
//	                     adlantis.jp, mbga.jp, adimg.net, gree.jp
//	MD5(Android ID)    — i-mobile.co.jp, nend.net, admob.com,
//	                     googlesyndication.com, microad.jp, mediba.jp
//	SHA1(Android ID)   — flurry.com
//	MD5(IMEI)          — amoad.com
//	SHA1(IMEI)         — adwhirl.com, mobclix.com
//	IMEI (plain)       — attached by ad-maker/mydas/medibaad/adlantis when
//	                     the app holds READ_PHONE_STATE ("ad-maker.info,
//	                     mydas.mobi, medibaad.com, and adlantis.jp expect
//	                     IMEI and Android ID", §III-B)
//	carrier name       — i-mobile.co.jp on a fraction of requests
//
// doubleclick.net, google-analytics.com, gstatic.com, google.com,
// yahoo.co.jp, ggpht.com, naver.jp, rakuten.co.jp and fc2.com carry no
// device identifiers and populate the normal group.

import (
	"leaksig/internal/httpmodel"
)

// tableIIEntry pairs a Table II row with its builder.
type tableIIEntry struct {
	host            string
	packets, apps   int
	org             string
	category        category
	sensitive       bool
	needsPhoneState bool
	build           func(ctx *buildCtx, host string) *httpmodel.Packet
}

func tableIIEntries() []tableIIEntry {
	return []tableIIEntry{
		{"doubleclick.net", 5786, 407, "Google", catAdModule, false, false, buildDoubleclick},
		{"admob.com", 1299, 401, "Google", catAdModule, true, false, buildAdmob},
		{"google-analytics.com", 3098, 353, "Google", catAnalytics, false, false, buildGA},
		{"gstatic.com", 1387, 333, "Google", catCDN, false, false, buildStatic},
		{"google.com", 3604, 308, "Google", catWebAPI, false, false, buildGoogleAPI},
		{"yahoo.co.jp", 1756, 287, "Yahoo Japan", catPortal, false, false, buildYahoo},
		{"ggpht.com", 940, 281, "Google", catCDN, false, false, buildStatic},
		{"googlesyndication.com", 938, 244, "Google", catAdModule, true, false, buildGSyndication},
		{"ad-maker.info", 3391, 195, "AdMaker", catAdModule, true, false, buildAdMaker},
		{"nend.net", 1368, 192, "FAN Communications", catAdModule, true, false, buildNend},
		{"mydas.mobi", 332, 164, "Millennial Media", catAdModule, true, false, buildMydas},
		{"amoad.com", 583, 116, "AMoAd", catAdModule, true, true, buildAmoad},
		{"flurry.com", 335, 119, "Flurry", catAdModule, true, false, buildFlurry},
		{"microad.jp", 868, 103, "MicroAd", catAdModule, true, false, buildMicroad},
		{"adwhirl.com", 548, 102, "AdWhirl", catAdModule, true, true, buildAdwhirl},
		{"i-mobile.co.jp", 3729, 100, "i-mobile", catAdModule, true, false, buildIMobile},
		{"adlantis.jp", 237, 98, "Adlantis", catAdModule, true, false, buildAdlantis},
		{"naver.jp", 3390, 82, "Naver Japan", catPortal, false, false, buildNaver},
		{"adimg.net", 315, 72, "AdImg", catAdModule, true, false, buildAdimg},
		{"mbga.jp", 1048, 63, "DeNA", catSocial, true, false, buildMbga},
		{"rakuten.co.jp", 502, 56, "Rakuten", catWebAPI, false, false, buildRakuten},
		{"fc2.com", 163, 52, "FC2", catPortal, false, false, buildFC2},
		{"medibaad.com", 1162, 49, "mediba", catAdModule, true, false, buildMedibaAd},
		{"mediba.jp", 427, 48, "mediba", catAdModule, true, false, buildMediba},
		{"mobclix.com", 260, 48, "Mobclix", catAdModule, true, true, buildMobclix},
		{"gree.jp", 228, 45, "GREE", catSocial, true, false, buildGree},
	}
}

// --- sensitive ad modules ------------------------------------------------

func buildAdMaker(ctx *buildCtx, host string) *httpmodel.Packet {
	b := httpmodel.Get(host, "/ad/v2/fetch").
		Query("zone", randInt(ctx.Rng, 1, 400)).
		Query("aid", ctx.Device.AndroidID)
	if ctx.App.HasPhoneState {
		b.Query("imei", ctx.Device.IMEI)
	}
	return b.Query("fmt", "json").
		Query("seq", randInt(ctx.Rng, 1, 5000)).
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildMydas(ctx *buildCtx, host string) *httpmodel.Packet {
	b := httpmodel.Get(host, "/getAd.php5").
		Query("apid", ctx.App.PubID).
		Query("androidid", ctx.Device.AndroidID)
	if ctx.App.HasPhoneState {
		b.Query("imei", ctx.Device.IMEI)
	}
	return b.Query("mmisdk", "4.6.0-12").
		Query("density", "1.5").
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildMedibaAd(ctx *buildCtx, host string) *httpmodel.Packet {
	pairs := []string{"uid", ctx.Device.AndroidID}
	if ctx.App.HasPhoneState {
		pairs = append(pairs, "imei", ctx.Device.IMEI)
	}
	pairs = append(pairs,
		"pub", ctx.App.PubID,
		"v", "3.1",
		"r", randHex(ctx.Rng, 8),
	)
	return httpmodel.Post(host, "/sdk/req").
		Form(pairs...).
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildAdlantis(ctx *buildCtx, host string) *httpmodel.Packet {
	b := httpmodel.Get(host, "/sp/load").
		Query("aduid", ctx.Device.AndroidID)
	if ctx.App.HasPhoneState {
		b.Query("device", ctx.Device.IMEI)
	}
	return b.Query("pub", ctx.App.PubID).
		Query("t", randDigits(ctx.Rng, 10)).
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildMbga(ctx *buildCtx, host string) *httpmodel.Packet {
	return httpmodel.Get(host, "/api/session").
		Query("user", ctx.Device.AndroidID).
		Query("app", ctx.App.PubID).
		Query("t", randDigits(ctx.Rng, 10)).
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildAdimg(ctx *buildCtx, host string) *httpmodel.Packet {
	return httpmodel.Get(host, "/img/banner").
		Query("aid", ctx.Device.AndroidID).
		Query("size", "320x50").
		Query("r", randHex(ctx.Rng, 8)).
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildGree(ctx *buildCtx, host string) *httpmodel.Packet {
	return httpmodel.Get(host, "/api/v1/me").
		Query("uid", ctx.Device.AndroidID).
		Query("app_id", ctx.App.PubID).
		Query("format", "json").
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildIMobile(ctx *buildCtx, host string) *httpmodel.Packet {
	b := httpmodel.Get(host, "/ad/p/").
		Query("pid", ctx.App.PubID).
		Query("uid", md5AID(ctx.Device)).
		Query("os", "android")
	if ctx.Rng.Float64() < 0.40 {
		b.Query("carrier", ctx.Device.Carrier.Name)
	}
	return b.Query("w", "320").Query("h", "50").
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildNend(ctx *buildCtx, host string) *httpmodel.Packet {
	return httpmodel.Get(host, "/na.php").
		Query("apikey", ctx.App.PubID).
		Query("uid", md5AID(ctx.Device)).
		Query("sdk", "1.2.1").
		Query("rnd", randDigits(ctx.Rng, 8)).
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildAdmob(ctx *buildCtx, host string) *httpmodel.Packet {
	return httpmodel.Get(host, "/mads/gma").
		Query("preqs", randInt(ctx.Rng, 0, 30)).
		Query("u_w", "320").
		Query("u_h", "50").
		Query("udid", md5AID(ctx.Device)).
		Query("client", "ca-mb-app-pub-"+ctx.App.PubID).
		Query("format", "320x50_mb").
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildGSyndication(ctx *buildCtx, host string) *httpmodel.Packet {
	return httpmodel.Get(host, "/pagead/ads").
		Query("client", "ca-app-pub-"+ctx.App.PubID).
		Query("udid", md5AID(ctx.Device)).
		Query("format", "320x50_mb").
		Query("output", "html").
		Query("sz", "320x50").
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildMicroad(ctx *buildCtx, host string) *httpmodel.Packet {
	return httpmodel.Get(host, "/ad/sp").
		Query("spot", ctx.App.PubID).
		Query("u", md5AID(ctx.Device)).
		Query("t", randDigits(ctx.Rng, 10)).
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildMediba(ctx *buildCtx, host string) *httpmodel.Packet {
	return httpmodel.Get(host, "/sdk/ad").
		Query("sid", ctx.App.PubID).
		Query("muid", md5AID(ctx.Device)).
		Query("ver", "2.0").
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildFlurry(ctx *buildCtx, host string) *httpmodel.Packet {
	return httpmodel.Post(host, "/aap.do").
		Form(
			"apiKey", ctx.App.PubID,
			"uid", sha1AID(ctx.Device),
			"ts", randDigits(ctx.Rng, 13),
			"ve", "2.2",
		).
		UserAgent(ctx.Device.UserAgent()).Build()
}

// buildAmoad transmits MD5(IMEI) when permitted; otherwise the SDK falls
// back to a permissionless config fetch (a benign packet on an ad host).
func buildAmoad(ctx *buildCtx, host string) *httpmodel.Packet {
	b := httpmodel.Get(host, "/n/v1").
		Query("sid", ctx.App.PubID)
	if ctx.App.HasPhoneState {
		b.Query("did", md5IMEI(ctx.Device))
	} else {
		b.Query("nid", randHex(ctx.Rng, 16))
	}
	return b.Query("lang", "ja").
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildAdwhirl(ctx *buildCtx, host string) *httpmodel.Packet {
	b := httpmodel.Get(host, "/getInfo.php").
		Query("appid", ctx.App.PubID)
	if ctx.App.HasPhoneState {
		b.Query("uuid", sha1IMEI(ctx.Device))
	}
	return b.Query("client", "2").
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildMobclix(ctx *buildCtx, host string) *httpmodel.Packet {
	pairs := []string{"p", "android", "a", ctx.App.PubID}
	if ctx.App.HasPhoneState {
		pairs = append(pairs, "d", sha1IMEI(ctx.Device))
	}
	pairs = append(pairs, "v", "3.2.0")
	return httpmodel.Post(host, "/vc/1.0").
		Form(pairs...).
		UserAgent(ctx.Device.UserAgent()).Build()
}

// --- benign named destinations -------------------------------------------

// buildDoubleclick emits cookie-correlated impressions with no device IDs.
// It deliberately shares template fragments (pagead paths, output/sz
// parameters) with the Google in-app ad modules: clusters that degrade to
// template-only tokens will false-positive against this traffic, the
// behaviour Figure 4's FP curve shows growing with N.
func buildDoubleclick(ctx *buildCtx, host string) *httpmodel.Packet {
	return httpmodel.Get(host, "/pagead/adview").
		Query("correlator", randDigits(ctx.Rng, 13)).
		Query("output", "html").
		Query("sz", "320x50").
		Query("slotname", ctx.App.PubID).
		Cookie("id=" + randHex(ctx.Rng, 16)).
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildGA(ctx *buildCtx, host string) *httpmodel.Packet {
	return httpmodel.Get(host, "/__utm.gif").
		Query("utmwv", "4.8.1ma").
		Query("utmn", randDigits(ctx.Rng, 10)).
		Query("utmhn", ctx.App.Package).
		Query("utmcs", "UTF-8").
		Query("utmac", "MO-"+randDigits(ctx.Rng, 8)+"-1").
		UserAgent(ctx.Device.UserAgent()).Build()
}

var staticAssets = []string{"logo", "sprite", "banner", "icon", "btn", "bg", "header", "thumb"}

func buildStatic(ctx *buildCtx, host string) *httpmodel.Packet {
	name := staticAssets[ctx.Rng.Intn(len(staticAssets))]
	return httpmodel.Get(host, "/images/"+name+randInt(ctx.Rng, 1, 99)+".png").
		Header("Accept", "image/*").
		UserAgent(ctx.Device.UserAgent()).Build()
}

var searchWords = []string{
	"tenki", "news", "densha", "recipe", "eiga", "game", "hoshii",
	"sale", "matome", "anime", "soccer", "keiba",
}

func buildGoogleAPI(ctx *buildCtx, host string) *httpmodel.Packet {
	return httpmodel.Get(host, "/complete/search").
		Query("q", searchWords[ctx.Rng.Intn(len(searchWords))]).
		Query("client", "android").
		Query("hl", "ja").
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildYahoo(ctx *buildCtx, host string) *httpmodel.Packet {
	return httpmodel.Get(host, "/search").
		Query("p", searchWords[ctx.Rng.Intn(len(searchWords))]).
		Query("ei", "UTF-8").
		Query("fr", "applp2").
		UserAgent(ctx.Device.UserAgent()).Build()
}

var naverSections = []string{"matome", "news", "ranking", "topic", "photo"}

func buildNaver(ctx *buildCtx, host string) *httpmodel.Packet {
	s := naverSections[ctx.Rng.Intn(len(naverSections))]
	return httpmodel.Get(host, "/"+s+"/list").
		Query("page", randInt(ctx.Rng, 1, 40)).
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildRakuten(ctx *buildCtx, host string) *httpmodel.Packet {
	return httpmodel.Get(host, "/api/item/search").
		Query("keyword", searchWords[ctx.Rng.Intn(len(searchWords))]).
		Query("format", "json").
		Query("page", randInt(ctx.Rng, 1, 20)).
		UserAgent(ctx.Device.UserAgent()).Build()
}

func buildFC2(ctx *buildCtx, host string) *httpmodel.Packet {
	return httpmodel.Get(host, "/blog/entry-"+randInt(ctx.Rng, 100, 99999)+".html").
		UserAgent(ctx.Device.UserAgent()).Build()
}

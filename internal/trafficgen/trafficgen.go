// Package trafficgen fabricates the paper's measurement dataset: 1,188
// applications' worth of HTTP traffic from one handset (107,859 GET/POST
// packets, §III/§V-A), calibrated so that
//
//   - permission combinations match Table I's five printed rows,
//   - per-destination packet and application counts match Table II,
//   - sensitive-information composition approximates Table III, and
//   - the per-application destination distribution matches Figure 2
//     (7% single-destination, 74% within 10, 90% within 16, mean 7.9,
//     maximum 84 — the embedded-browser outlier).
//
// The server side of the measurement is a Universe: the destinations the
// 1,188 applications talked to (Table II), the advertisement modules that
// embed device identifiers in their requests (§III-B, Table III), and the
// benign Web-API/CDN/analytics traffic that forms the normal group.
//
// Every destination is a profile: a host with an allocated IPv4 address, a
// traffic category, calibration targets (packets and distinct apps, from
// Table II for the named domains), and a Build function that fabricates one
// HTTP request the way that service's client library did in 2012. Sensitive
// profiles consult the requesting application's permissions: a module only
// transmits the IMEI family when the host application holds
// READ_PHONE_STATE, while the Android ID needs no permission at all —
// which is exactly why hashed Android IDs dominate the paper's Table III.
//
// The generator is fully deterministic for a given Config.Seed.
package trafficgen

import (
	"fmt"
	"math/rand"
	"sort"

	"leaksig/internal/android"
	"leaksig/internal/capture"
	"leaksig/internal/httpmodel"
)

// Config parameterizes generation. Zero fields select the paper's values.
type Config struct {
	Seed         int64
	NumApps      int             // default 1188
	TotalPackets int             // default 107859
	Carrier      android.Carrier // default NTT docomo
}

func (c Config) withDefaults() Config {
	if c.NumApps == 0 {
		c.NumApps = 1188
	}
	if c.TotalPackets == 0 {
		c.TotalPackets = 107859
	}
	if c.Carrier == (android.Carrier{}) {
		c.Carrier = android.CarrierDocomo
	}
	return c
}

// App is one synthetic application: its manifest plus the facts ad modules
// observe and its assigned destinations.
type App struct {
	Manifest   *android.Manifest
	info       appInfo
	destTarget int        // Figure 2 capacity drawn for this app
	profiles   []*profile // destinations assigned
	heavy      bool       // one of the high-fanout applications
}

// Dataset is the full synthetic capture with its provenance.
type Dataset struct {
	Device   *android.Device
	Apps     []*App
	Universe *Universe
	Capture  *capture.Set
}

// Generate builds the dataset.
func Generate(cfg Config) *Dataset {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	device := android.NewDevice(rng, cfg.Carrier)
	universe := newUniverse(cfg.TotalPackets)
	apps := buildApps(rng, cfg.NumApps)
	markHeavyApps(apps)
	assignDestinations(rng, universe, apps)
	set := emitPackets(rng, device, universe, apps)
	return &Dataset{
		Device:   device,
		Apps:     apps,
		Universe: universe,
		Capture:  set,
	}
}

// tableIRow describes one permission-combination row and its share of the
// 1,188 applications. The five printed Table I rows come first; the last
// three absorb the 233 applications the paper's table leaves unexplained
// (all still hold INTERNET so that every app produces traffic, matching
// Figure 2's minimum of one destination).
type tableIRow struct {
	count int
	perms []android.Permission
}

func tableIRows() []tableIRow {
	const (
		inet     = android.PermInternet
		fineLoc  = android.PermAccessFineLocation
		phone    = android.PermReadPhoneState
		contacts = android.PermReadContacts
	)
	return []tableIRow{
		{302, []android.Permission{inet}},
		{329, []android.Permission{inet, phone}},
		{153, []android.Permission{inet, fineLoc, phone}},
		{148, []android.Permission{inet, fineLoc}},
		{23, []android.Permission{inet, fineLoc, phone, contacts}},
		{120, []android.Permission{inet, contacts}},
		{74, []android.Permission{inet, phone, contacts}},
		{39, []android.Permission{inet, fineLoc, contacts}},
	}
}

var pkgPrefixes = []string{"jp.co", "com", "jp", "net", "org"}
var pkgWords = []string{
	"puzzle", "battle", "camera", "manga", "cook", "train", "navi",
	"weather", "quiz", "ranch", "ninja", "samurai", "bento", "kanji",
	"photo", "memo", "alarm", "radio", "sushi", "karaoke", "mahjong",
	"shogi", "pachi", "derby", "tycoon", "garden", "fishing", "runner",
}

// buildApps fabricates the application population with Table I permission
// rows scaled to numApps.
func buildApps(rng *rand.Rand, numApps int) []*App {
	rows := tableIRows()
	baseTotal := 0
	for _, r := range rows {
		baseTotal += r.count
	}
	var apps []*App
	mk := func(idx int, perms []android.Permission) *App {
		pkg := fmt.Sprintf("%s.%s%s%d",
			pkgPrefixes[idx%len(pkgPrefixes)],
			pkgWords[idx%len(pkgWords)],
			pkgWords[(idx/len(pkgWords)+idx)%len(pkgWords)],
			idx)
		man := &android.Manifest{
			Package:     pkg,
			UID:         10000 + idx,
			Permissions: android.NewSet(perms...),
		}
		return &App{
			Manifest: man,
			info: appInfo{
				Package:       pkg,
				HasPhoneState: man.Permissions.Has(android.PermReadPhoneState),
				HasLocation:   man.Permissions.HasLocation(),
				InstallUUID:   randHex(rng, 32),
				PubID:         randHex(rng, 12),
			},
			destTarget: sampleDestTarget(rng),
		}
	}
	idx := 0
	for ri, r := range rows {
		n := r.count * numApps / baseTotal
		if ri == 0 {
			// First row absorbs rounding so totals are exact.
			n = numApps
			for rj, rr := range rows[1:] {
				_ = rj
				n -= rr.count * numApps / baseTotal
			}
		}
		for i := 0; i < n; i++ {
			apps = append(apps, mk(idx, r.perms))
			idx++
		}
	}
	return apps
}

// sampleDestTarget draws one application's destination-count target from
// the Figure 2 calibration: P(1)=.068, bulk 2..10 with decreasing weights,
// plateau 11..16, exponential tail 17+.
func sampleDestTarget(rng *rand.Rand) int {
	u := rng.Float64()
	switch {
	case u < 0.068:
		return 1
	case u < 0.74:
		// Weights 9,8,...,1 over 2..10.
		w := rng.Intn(45)
		for k, acc := 0, 0; k < 9; k++ {
			acc += 9 - k
			if w < acc {
				return 2 + k
			}
		}
		return 10
	case u < 0.90:
		return 11 + rng.Intn(6)
	default:
		t := 17 + int(rng.ExpFloat64()*6)
		if t > 60 {
			t = 60
		}
		return t
	}
}

// markHeavyApps designates the high-fanout applications: the top 21 by
// destination target (floored at 25 destinations), with the single largest
// raised to 84 — the paper's embedded-browser outlier.
func markHeavyApps(apps []*App) {
	idx := make([]int, len(apps))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return apps[idx[a]].destTarget > apps[idx[b]].destTarget
	})
	nHeavy := 21
	if nHeavy > len(apps) {
		nHeavy = len(apps)
	}
	for r := 0; r < nHeavy; r++ {
		a := apps[idx[r]]
		a.heavy = true
		if a.destTarget < 25 {
			a.destTarget = 25 + r
		}
	}
	if nHeavy > 0 {
		apps[idx[0]].destTarget = 84
	}
}

// assignDestinations matches profiles to apps so that both the per-profile
// app targets (Table II) and the per-app destination targets (Figure 2)
// hold approximately. Profiles claim apps by weighted sampling on remaining
// app capacity, biased toward READ_PHONE_STATE holders for IMEI-hungry
// modules and restricted to heavy apps for HeavyOnly families.
func assignDestinations(rng *rand.Rand, u *Universe, apps []*App) {
	remaining := make([]float64, len(apps))
	for i, a := range apps {
		remaining[i] = float64(a.destTarget)
	}
	// Order: heavy-only families first (their pool is tiny), then sensitive
	// profiles needing phone state, then other sensitive, then benign, each
	// by descending app target so big rows see full capacity.
	order := make([]*profile, len(u.profiles))
	copy(order, u.profiles)
	rank := func(p *profile) int {
		switch {
		case p.HeavyOnly:
			return 0
		case p.Sensitive && p.NeedsPhoneState:
			return 1
		case p.Sensitive:
			return 2
		default:
			return 3
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		ri, rj := rank(order[i]), rank(order[j])
		if ri != rj {
			return ri < rj
		}
		return order[i].TargetApps > order[j].TargetApps
	})
	for _, p := range order {
		k := p.TargetApps
		if k <= 0 {
			continue
		}
		chosen := sampleApps(rng, apps, remaining, p, k)
		for _, ai := range chosen {
			apps[ai].profiles = append(apps[ai].profiles, p)
			remaining[ai]--
		}
	}
	// Every application produced traffic in the paper's trace (Figure 2's
	// minimum is one destination); give stragglers one benign destination.
	var fallback []*profile
	for _, p := range u.profiles {
		if !p.Sensitive && !p.HeavyOnly && p.TargetApps >= 10 {
			fallback = append(fallback, p)
		}
	}
	if len(fallback) > 0 {
		for _, a := range apps {
			if len(a.profiles) == 0 {
				a.profiles = append(a.profiles, fallback[rng.Intn(len(fallback))])
			}
		}
	}
}

// sampleApps draws up to k distinct eligible apps weighted by remaining
// capacity (plus a floor so saturated apps stay reachable when the pool is
// tight) and the profile's permission bias.
func sampleApps(rng *rand.Rand, apps []*App, remaining []float64, p *profile, k int) []int {
	type cand struct {
		idx int
		w   float64
	}
	var pool []cand
	for i, a := range apps {
		if p.HeavyOnly && !a.heavy {
			continue
		}
		w := remaining[i]
		if w < 0 {
			w = 0
		}
		w += 0.02
		if p.NeedsPhoneState {
			if a.info.HasPhoneState {
				w *= 8
			} else if p.Category == catAdBeacon {
				// A beacon SDK with no permissionless fallback simply cannot
				// run inside an app lacking READ_PHONE_STATE: hard gate.
				continue
			} else {
				w *= 0.1
			}
		}
		pool = append(pool, cand{idx: i, w: w})
	}
	if k > len(pool) {
		k = len(pool)
	}
	out := make([]int, 0, k)
	total := 0.0
	for _, c := range pool {
		total += c.w
	}
	for len(out) < k {
		r := rng.Float64() * total
		pick := -1
		for ci := range pool {
			if pool[ci].w <= 0 {
				continue
			}
			r -= pool[ci].w
			if r <= 0 {
				pick = ci
				break
			}
		}
		if pick < 0 {
			// Numerical residue: take the last weighted candidate.
			for ci := len(pool) - 1; ci >= 0; ci-- {
				if pool[ci].w > 0 {
					pick = ci
					break
				}
			}
			if pick < 0 {
				break
			}
		}
		out = append(out, pool[pick].idx)
		total -= pool[pick].w
		pool[pick].w = 0
	}
	sort.Ints(out)
	return out
}

// collection window: January–April 2012 (§III-B).
const (
	captureStart = 1325376000 // 2012-01-01T00:00:00Z
	captureEnd   = 1335830399 // 2012-04-30T23:59:59Z
)

// emitPackets realizes every profile's packet budget over its assigned
// apps, stamps capture metadata, and returns the packets in time order.
func emitPackets(rng *rand.Rand, device *android.Device, u *Universe, apps []*App) *capture.Set {
	// Invert the assignment: per profile, its apps.
	byProfile := make(map[*profile][]*App)
	for _, a := range apps {
		for _, p := range a.profiles {
			byProfile[p] = append(byProfile[p], a)
		}
	}
	var packets []*httpmodel.Packet
	for _, p := range u.profiles {
		assigned := byProfile[p]
		if len(assigned) == 0 || p.TargetPackets <= 0 {
			continue
		}
		counts := splitBudget(rng, p.TargetPackets, len(assigned))
		for ai, a := range assigned {
			ctx := &buildCtx{Rng: rng, Device: device, App: a.info}
			for n := 0; n < counts[ai]; n++ {
				pkt := p.Build(ctx)
				pkt.DstIP = p.IP
				pkt.DstPort = p.Port
				pkt.App = a.Manifest.Package
				pkt.Time = captureStart + rng.Int63n(captureEnd-captureStart)
				packets = append(packets, pkt)
			}
		}
	}
	sort.SliceStable(packets, func(i, j int) bool { return packets[i].Time < packets[j].Time })
	for i, pkt := range packets {
		pkt.ID = int64(i + 1)
	}
	return capture.New(packets)
}

// splitBudget divides total packets over n holders: every holder gets at
// least one, the rest is distributed by exponential activity weights.
func splitBudget(rng *rand.Rand, total, n int) []int {
	counts := make([]int, n)
	if total <= n {
		for i := 0; i < total; i++ {
			counts[i]++
		}
		return counts
	}
	weights := make([]float64, n)
	sum := 0.0
	for i := range weights {
		weights[i] = rng.ExpFloat64() + 0.05
		sum += weights[i]
	}
	rest := total - n
	given := 0
	for i := range counts {
		c := int(float64(rest) * weights[i] / sum)
		counts[i] = 1 + c
		given += c
	}
	// Distribute the rounding remainder round-robin.
	for i := 0; given < rest; i = (i + 1) % n {
		counts[i]++
		given++
	}
	return counts
}

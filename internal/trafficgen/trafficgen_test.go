package trafficgen

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"leaksig/internal/android"
	"leaksig/internal/capture"
	"leaksig/internal/httpmodel"
	"leaksig/internal/sensitive"
	"leaksig/internal/stats"
)

// fullDataset is generated once; several tests inspect it.
var fullDataset = Generate(Config{Seed: 1})

func TestTotalPacketsNearPaper(t *testing.T) {
	got := fullDataset.Capture.Len()
	want := 107859
	if diff := got - want; diff < -2000 || diff > 2000 {
		t.Errorf("total packets = %d, want within 2000 of %d", got, want)
	}
}

func TestTableIRowsExact(t *testing.T) {
	counts := make(map[android.Combo]int)
	for _, a := range fullDataset.Apps {
		counts[a.Manifest.DangerousCombo()]++
	}
	want := map[android.Combo]int{
		android.ComboInternetOnly:                  302,
		android.ComboInternetPhone:                 329,
		android.ComboInternetLocationPhone:         153,
		android.ComboInternetLocation:              148,
		android.ComboInternetLocationPhoneContacts: 23,
		android.ComboOther:                         233,
	}
	for combo, n := range want {
		if counts[combo] != n {
			t.Errorf("combo %v = %d apps, want %d", combo, counts[combo], n)
		}
	}
	if len(fullDataset.Apps) != 1188 {
		t.Errorf("apps = %d", len(fullDataset.Apps))
	}
}

func TestEveryPacketValid(t *testing.T) {
	for _, p := range fullDataset.Capture.Packets[:2000] {
		if err := p.Validate(); err != nil {
			t.Fatalf("invalid packet: %v", err)
		}
		if p.App == "" || p.Time == 0 || p.DstIP == 0 {
			t.Fatalf("missing metadata: %+v", p)
		}
	}
}

func TestPacketsTimeOrderedWithSequentialIDs(t *testing.T) {
	ps := fullDataset.Capture.Packets
	for i := 1; i < len(ps); i++ {
		if ps[i].Time < ps[i-1].Time {
			t.Fatalf("packets not time ordered at %d", i)
		}
		if ps[i].ID != ps[i-1].ID+1 {
			t.Fatalf("IDs not sequential at %d", i)
		}
	}
}

// datasetDigest is the sha256 of Generate(Config{Seed: 1})'s capture as
// JSONL. It pins the generated bytes across commits: a refactor of the
// generator or of the universe it draws from must leave it unchanged,
// and a deliberate change to the dataset must update it in the same
// commit.
const datasetDigest = "5004d5bb870cb3ff797bc37f1767d700281824368916e04d21331e11b80d0c34"

func TestDatasetDigestGolden(t *testing.T) {
	h := sha256.New()
	if err := Generate(Config{Seed: 1}).Capture.WriteJSONL(h); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != datasetDigest {
		t.Errorf("dataset digest = %s, want %s", got, datasetDigest)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := Generate(Config{Seed: 7, NumApps: 120, TotalPackets: 9000})
	b := Generate(Config{Seed: 7, NumApps: 120, TotalPackets: 9000})
	if a.Capture.Len() != b.Capture.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Capture.Len(), b.Capture.Len())
	}
	for i := range a.Capture.Packets {
		pa, pb := a.Capture.Packets[i], b.Capture.Packets[i]
		if pa.RequestLine() != pb.RequestLine() || pa.Host != pb.Host || pa.App != pb.App {
			t.Fatalf("packet %d differs:\n%v\n%v", i, pa, pb)
		}
	}
	c := Generate(Config{Seed: 8, NumApps: 120, TotalPackets: 9000})
	same := c.Capture.Len() == a.Capture.Len()
	if same {
		diff := false
		for i := range a.Capture.Packets {
			if a.Capture.Packets[i].RequestLine() != c.Capture.Packets[i].RequestLine() {
				diff = true
				break
			}
		}
		if !diff {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestFigure2DestinationDistribution(t *testing.T) {
	perApp := destinationCounts(fullDataset)
	s := stats.Summarize(perApp)
	if s.Count != 1188 {
		t.Fatalf("apps with traffic = %d", s.Count)
	}
	if s.Mean < 6.5 || s.Mean > 9.5 {
		t.Errorf("mean destinations = %.2f, want ~7.9", s.Mean)
	}
	if s.Max < 60 || s.Max > 90 {
		t.Errorf("max destinations = %d, want ~84", s.Max)
	}
	cdf := stats.NewCDF(perApp)
	if f := cdf.FractionAtMost(1); f < 0.03 || f > 0.12 {
		t.Errorf("fraction with 1 destination = %.3f, want ~0.07", f)
	}
	if f := cdf.FractionAtMost(10); f < 0.64 || f > 0.84 {
		t.Errorf("fraction <=10 = %.3f, want ~0.74", f)
	}
	if f := cdf.FractionAtMost(16); f < 0.82 || f > 0.96 {
		t.Errorf("fraction <=16 = %.3f, want ~0.90", f)
	}
}

func destinationCounts(d *Dataset) []int {
	hostsByApp := make(map[string]map[string]bool)
	for _, p := range d.Capture.Packets {
		m := hostsByApp[p.App]
		if m == nil {
			m = make(map[string]bool)
			hostsByApp[p.App] = m
		}
		m[p.Host] = true
	}
	var out []int
	for _, m := range hostsByApp {
		out = append(out, len(m))
	}
	return out
}

func TestTableIIDestinationTargets(t *testing.T) {
	pktByHost := stats.NewFreq[string]()
	appsByHost := make(map[string]map[string]bool)
	for _, p := range fullDataset.Capture.Packets {
		pktByHost.Add(p.Host)
		m := appsByHost[p.Host]
		if m == nil {
			m = make(map[string]bool)
			appsByHost[p.Host] = m
		}
		m[p.App] = true
	}
	check := func(host string, wantPkts, wantApps int) {
		t.Helper()
		gotP := pktByHost[host]
		gotA := len(appsByHost[host])
		if gotP < wantPkts*90/100 || gotP > wantPkts*110/100 {
			t.Errorf("%s packets = %d, want ~%d", host, gotP, wantPkts)
		}
		if gotA < wantApps*80/100 || gotA > wantApps*115/100 {
			t.Errorf("%s apps = %d, want ~%d", host, gotA, wantApps)
		}
	}
	check("doubleclick.net", 5786, 407)
	check("admob.com", 1299, 401)
	check("i-mobile.co.jp", 3729, 100)
	check("ad-maker.info", 3391, 195)
	check("gree.jp", 228, 45)
}

func TestTableIIISensitiveComposition(t *testing.T) {
	oracle := sensitive.NewOracle(fullDataset.Device)
	kindPkts := make(map[sensitive.Kind]int)
	suspicious := 0
	for _, p := range fullDataset.Capture.Packets {
		kinds := oracle.Scan(p)
		if len(kinds) > 0 {
			suspicious++
		}
		for _, k := range kinds {
			kindPkts[k]++
		}
	}
	t.Logf("suspicious = %d (paper 23309)", suspicious)
	paper := map[sensitive.Kind]int{
		sensitive.KindAndroidID:     7590,
		sensitive.KindAndroidIDMD5:  10058,
		sensitive.KindAndroidIDSHA1: 1247,
		sensitive.KindCarrier:       2095,
		sensitive.KindIMEI:          3331,
		sensitive.KindIMEIMD5:       692,
		sensitive.KindIMEISHA1:      1062,
		sensitive.KindIMSI:          655,
		sensitive.KindSIMSerial:     369,
	}
	for k, want := range paper {
		got := kindPkts[k]
		t.Logf("%-22s generated %6d  paper %6d", k, got, want)
		if got < want*55/100 || got > want*160/100 {
			t.Errorf("%v packets = %d, outside [0.55, 1.6]x of paper's %d", k, got, want)
		}
	}
	if suspicious < 19000 || suspicious > 28000 {
		t.Errorf("suspicious packets = %d, want ~23309", suspicious)
	}
	// Ordering properties the paper emphasizes must hold: hashed Android ID
	// dominates, SIM serial is rarest.
	if kindPkts[sensitive.KindAndroidIDMD5] <= kindPkts[sensitive.KindAndroidID] {
		t.Error("ANDROID ID MD5 should dominate plain ANDROID ID")
	}
	if kindPkts[sensitive.KindSIMSerial] >= kindPkts[sensitive.KindIMSI]*3 {
		t.Error("SIM serial should be among the rarest kinds")
	}
}

func TestPermissionsGateIMEI(t *testing.T) {
	// No packet from an app lacking READ_PHONE_STATE may carry the IMEI
	// family: the reference-monitor behaviour ad modules are subject to.
	oracle := sensitive.NewOracle(fullDataset.Device)
	phonePerm := make(map[string]bool)
	for _, a := range fullDataset.Apps {
		phonePerm[a.Manifest.Package] = a.info.HasPhoneState
	}
	imeiKinds := map[sensitive.Kind]bool{
		sensitive.KindIMEI: true, sensitive.KindIMEIMD5: true, sensitive.KindIMEISHA1: true,
		sensitive.KindIMSI: true, sensitive.KindSIMSerial: true,
	}
	for _, p := range fullDataset.Capture.Packets {
		if phonePerm[p.App] {
			continue
		}
		for _, k := range oracle.Scan(p) {
			if imeiKinds[k] {
				t.Fatalf("app %s without READ_PHONE_STATE leaked %v: %s", p.App, k, p)
			}
		}
	}
}

func TestScaledDownGeneration(t *testing.T) {
	d := Generate(Config{Seed: 3, NumApps: 100, TotalPackets: 8000})
	if len(d.Apps) != 100 {
		t.Fatalf("apps = %d", len(d.Apps))
	}
	if d.Capture.Len() < 4000 {
		t.Errorf("packets = %d, want a few thousand", d.Capture.Len())
	}
	oracle := sensitive.NewOracle(d.Device)
	susp := 0
	for _, p := range d.Capture.Packets {
		if oracle.IsSensitive(p) {
			susp++
		}
	}
	if susp == 0 {
		t.Error("scaled dataset has no sensitive packets")
	}
}

func TestSplitBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ total, n int }{{100, 7}, {7, 7}, {3, 7}, {5000, 3}, {1, 1}} {
		counts := splitBudget(rng, tc.total, tc.n)
		if len(counts) != tc.n {
			t.Fatalf("len = %d", len(counts))
		}
		sum := 0
		for _, c := range counts {
			sum += c
			if c < 0 {
				t.Fatalf("negative count")
			}
			if tc.total >= tc.n && c == 0 {
				t.Fatalf("holder got zero despite budget %d >= %d", tc.total, tc.n)
			}
		}
		if sum != tc.total {
			t.Fatalf("splitBudget(%d, %d) sums to %d", tc.total, tc.n, sum)
		}
	}
}

func TestSampleDestTargetDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var xs []int
	for i := 0; i < 20000; i++ {
		xs = append(xs, sampleDestTarget(rng))
	}
	s := stats.Summarize(xs)
	if s.Mean < 7.0 || s.Mean > 8.8 {
		t.Errorf("sampled mean = %.2f, want ~7.9", s.Mean)
	}
	if s.Min != 1 {
		t.Errorf("min = %d", s.Min)
	}
	cdf := stats.NewCDF(xs)
	if f := cdf.FractionAtMost(1); f < 0.05 || f > 0.09 {
		t.Errorf("P(1) = %.3f", f)
	}
}

func TestUUIDTrackerTrafficIsBenign(t *testing.T) {
	oracle := sensitive.NewOracle(fullDataset.Device)
	seen := 0
	for _, p := range fullDataset.Capture.Packets {
		if p.Host[0] == 'c' && len(p.Host) > 3 && p.Path[:7] == "/v1/imp" {
			if kinds := oracle.Scan(p); len(kinds) > 0 {
				t.Fatalf("uuid tracker packet flagged sensitive: %v %s", kinds, p)
			}
			seen++
			if seen > 500 {
				break
			}
		}
	}
	if seen == 0 {
		t.Skip("no uuid tracker packets sampled")
	}
}

func TestCaptureRoundTripSample(t *testing.T) {
	small := capture.New(fullDataset.Capture.Packets[:500])
	var cnt int
	for _, p := range small.Packets {
		if p.Method == "POST" {
			cnt++
		}
		_ = p.Content()
	}
	_ = cnt
	var hosts = small.Hosts()
	if len(hosts) < 5 {
		t.Errorf("sample covers %d hosts", len(hosts))
	}
	var _ = httpmodel.ByID
}

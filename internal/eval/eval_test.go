package eval

import (
	"strings"
	"testing"

	"leaksig/internal/android"
	"leaksig/internal/core"
	"leaksig/internal/detect"
	"leaksig/internal/distance"
	"leaksig/internal/reference"
	"leaksig/internal/sensitive"
	"leaksig/internal/trafficgen"
)

// fullEnv is shared by the heavyweight experiments.
var fullEnv = NewEnv(trafficgen.Config{Seed: 1})

// smallEnv keeps the fast tests fast.
var smallEnv = NewEnv(trafficgen.Config{Seed: 5, NumApps: 150, TotalPackets: 12000})

func TestEnvLabelsPartition(t *testing.T) {
	if fullEnv.Suspicious.Len()+fullEnv.Normal.Len() != fullEnv.Dataset.Capture.Len() {
		t.Fatal("suspicious + normal != total")
	}
	n := 0
	for _, s := range fullEnv.Sensitive {
		if s {
			n++
		}
	}
	if n != fullEnv.Suspicious.Len() {
		t.Fatalf("label count %d != suspicious size %d", n, fullEnv.Suspicious.Len())
	}
	if fullEnv.Suspicious.Len() < 20000 || fullEnv.Suspicious.Len() > 26000 {
		t.Errorf("suspicious = %d, paper 23309", fullEnv.Suspicious.Len())
	}
}

func TestTableIShape(t *testing.T) {
	rows := fullEnv.TableI()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	want := []int{302, 329, 153, 148, 23, 233}
	for i, r := range rows {
		if r.Apps != want[i] {
			t.Errorf("row %v = %d apps, want %d", r.Combo, r.Apps, want[i])
		}
	}
	if rows[0].Combo != android.ComboInternetOnly || rows[5].Combo != android.ComboOther {
		t.Error("row order wrong")
	}
}

func TestTableIIShape(t *testing.T) {
	rows := fullEnv.TableII(26)
	if len(rows) != 26 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Apps must be non-increasing (paper sorts by application count).
	for i := 1; i < len(rows); i++ {
		if rows[i].Apps > rows[i-1].Apps {
			t.Errorf("rows not sorted by apps: %v before %v", rows[i-1], rows[i])
		}
	}
	// The paper's top rows must appear.
	byHost := make(map[string]TableIIRow)
	for _, r := range rows {
		byHost[r.Host] = r
	}
	top, ok := byHost["doubleclick.net"]
	if !ok {
		t.Fatal("doubleclick.net missing from Table II")
	}
	if top.Apps < 350 || top.Packets < 5200 {
		t.Errorf("doubleclick row = %+v", top)
	}
	if _, ok := byHost["admob.com"]; !ok {
		t.Error("admob.com missing")
	}
}

func TestTableIIIShape(t *testing.T) {
	rows := fullEnv.TableIII()
	if len(rows) != sensitive.NumKinds {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(k sensitive.Kind) TableIIIRow {
		for _, r := range rows {
			if r.Kind == k {
				return r
			}
		}
		t.Fatalf("kind %v missing", k)
		return TableIIIRow{}
	}
	md5 := get(sensitive.KindAndroidIDMD5)
	aid := get(sensitive.KindAndroidID)
	sim := get(sensitive.KindSIMSerial)
	imei := get(sensitive.KindIMEI)
	if md5.Packets <= aid.Packets {
		t.Error("ANDROID ID MD5 should carry the most packets")
	}
	if sim.Packets >= aid.Packets {
		t.Error("SIM serial should be among the rarest")
	}
	// Hosts: IMEI flows to the most destinations in the paper (94).
	if imei.Hosts < 50 {
		t.Errorf("IMEI hosts = %d, paper 94", imei.Hosts)
	}
	// Apps: MD5'd Android ID reaches the most apps (433 in the paper).
	if md5.Apps < 250 {
		t.Errorf("ANDROID ID MD5 apps = %d, paper 433", md5.Apps)
	}
	for _, r := range rows {
		if r.Packets > 0 && (r.Apps == 0 || r.Hosts == 0) {
			t.Errorf("row %v has packets but no apps/hosts", r.Kind)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	f := fullEnv.Figure2()
	if f.TotalApps != 1188 {
		t.Errorf("apps = %d", f.TotalApps)
	}
	if f.Mean < 6.5 || f.Mean > 9.5 {
		t.Errorf("mean = %.2f, paper 7.9", f.Mean)
	}
	if f.Max < 60 || f.Max > 90 {
		t.Errorf("max = %d, paper 84", f.Max)
	}
	if f.FracOne < 0.03 || f.FracOne > 0.12 {
		t.Errorf("frac(1) = %.3f, paper 0.07", f.FracOne)
	}
	if f.FracLE10 < 0.62 || f.FracLE10 > 0.86 {
		t.Errorf("frac(<=10) = %.3f, paper 0.74", f.FracLE10)
	}
	if f.FracLE16 < 0.80 || f.FracLE16 > 0.97 {
		t.Errorf("frac(<=16) = %.3f, paper 0.90", f.FracLE16)
	}
	// CDF points must be monotone in both coordinates.
	for i := 1; i < len(f.Points); i++ {
		if f.Points[i].Value <= f.Points[i-1].Value || f.Points[i].Fraction < f.Points[i-1].Fraction {
			t.Fatal("CDF points not monotone")
		}
	}
}

func TestFigure4PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 4 sweep is expensive")
	}
	pts := fullEnv.Figure4(Figure4Config{SampleSeed: 42})
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	first, last := pts[0], pts[len(pts)-1]
	// Paper: TP 85% -> 94%; the reproduction must rise and land high.
	if last.TP <= first.TP {
		t.Errorf("TP does not rise: %.1f -> %.1f", first.TP, last.TP)
	}
	if first.TP < 65 || first.TP > 95 {
		t.Errorf("TP@100 = %.1f, paper 85", first.TP)
	}
	if last.TP < 88 || last.TP > 99.5 {
		t.Errorf("TP@500 = %.1f, paper 94", last.TP)
	}
	// Paper: FN 15% -> 5%.
	if last.FN >= first.FN {
		t.Errorf("FN does not fall: %.1f -> %.1f", first.FN, last.FN)
	}
	if last.FN < 0.5 || last.FN > 12 {
		t.Errorf("FN@500 = %.1f, paper 5", last.FN)
	}
	// Paper: FP 0.3% -> 2.3%; ours must stay small throughout.
	for _, p := range pts {
		if p.FP > 4 {
			t.Errorf("FP@%d = %.2f%%, paper stays under 2.3%%", p.N, p.FP)
		}
		if p.TP+p.FN < 99.0 || p.TP+p.FN > 101.0 {
			t.Errorf("TP+FN@%d = %.2f, should be 100 under the paper's equations", p.N, p.TP+p.FN)
		}
	}
	if last.FP < 0.1 {
		t.Errorf("FP@500 = %.2f%%, expected measurable false positives from generic signatures", last.FP)
	}
}

func TestFigure4SmallEnvFast(t *testing.T) {
	pts := smallEnv.Figure4(Figure4Config{Ns: []int{40, 120}, SampleSeed: 9})
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[1].TP < pts[0].TP-15 {
		t.Errorf("TP collapsed: %.1f -> %.1f", pts[0].TP, pts[1].TP)
	}
	for _, p := range pts {
		if p.Signatures == 0 {
			t.Errorf("no signatures at N=%d", p.N)
		}
		if p.TP < 0 || p.TP > 100.5 || p.FN < 0 || p.FP < 0 {
			t.Errorf("rates out of range at N=%d: %+v", p.N, p)
		}
	}
}

func TestFigure4RepeatsSmoothing(t *testing.T) {
	one := smallEnv.Figure4(Figure4Config{Ns: []int{60}, SampleSeed: 1, Repeats: 1})
	three := smallEnv.Figure4(Figure4Config{Ns: []int{60}, SampleSeed: 1, Repeats: 3})
	if len(one) != 1 || len(three) != 1 {
		t.Fatal("point counts")
	}
	// Averaged rates stay within the feasible band.
	if three[0].TP < 0 || three[0].TP > 100.5 {
		t.Errorf("averaged TP = %.2f", three[0].TP)
	}
}

func TestFigure4ContentOnlyAblationRuns(t *testing.T) {
	// The destination term is the paper's novelty; the ablation must run
	// and produce valid rates (quality comparison happens in the bench).
	pts := smallEnv.Figure4(Figure4Config{
		Ns:         []int{60},
		SampleSeed: 4,
		Pipeline: core.Config{
			Distance: distance.Config{DestinationWeight: -1},
		},
	})
	if len(pts) != 1 || pts[0].TP < 0 || pts[0].TP > 100.5 {
		t.Errorf("ablation point invalid: %+v", pts)
	}
}

func TestSampleSuspiciousDeterministic(t *testing.T) {
	a := fullEnv.SampleSuspicious(3, 50)
	b := fullEnv.SampleSuspicious(3, 50)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("sample sizes %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("sampling not deterministic")
		}
	}
}

func TestDescribe(t *testing.T) {
	d := fullEnv.Describe()
	for _, want := range []string{"1188 apps", "suspicious", "destinations"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe() = %q missing %q", d, want)
		}
	}
}

func TestCompareSignatureTypes(t *testing.T) {
	rows := smallEnv.CompareSignatureTypes(100, 3, core.Config{})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Type] = true
		if r.TP < 0 || r.TP > 100.5 || r.FN < 0 || r.FP < 0 {
			t.Errorf("%s rates out of range: %+v", r.Type, r)
		}
		if r.Signatures == 0 {
			t.Errorf("%s produced no signatures/tokens", r.Type)
		}
	}
	for _, want := range []string{"conjunction", "token-subsequence", "bayes"} {
		if !names[want] {
			t.Errorf("missing signature type %s", want)
		}
	}
	// Every class must detect a meaningful share of the leaks on this
	// dataset; Bayes should not be catastrophically worse than conjunction.
	for _, r := range rows {
		if r.TP < 30 {
			t.Errorf("%s TP = %.1f%%, implausibly low", r.Type, r.TP)
		}
	}
	// The token-subsequence row is scored through detect.Engine, the
	// matcher that ships; on every packet its verdict must be the naive
	// reference's.
	for _, seed := range []int64{3, 11} {
		_, _, subseq, _ := smallEnv.signatureClasses(100, seed, core.Config{})
		verdicts := detect.MatchSetWith(detect.NewEngine(subseq), smallEnv.Dataset.Capture)
		for i, p := range smallEnv.Dataset.Capture.Packets {
			if ref := reference.Match(subseq, p); verdicts[i] != (len(ref) > 0) {
				t.Fatalf("seed %d, packet %d: engine verdict %v, reference matches %v", seed, i, verdicts[i], ref)
			}
		}
	}
}

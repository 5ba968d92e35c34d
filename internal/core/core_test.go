package core

import (
	"math/rand"
	"strings"
	"testing"

	"leaksig/internal/cluster"
	"leaksig/internal/distance"
	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
	"leaksig/internal/signature"
)

// moduleTraffic fabricates n packets of a synthetic ad module: fixed host,
// IP and URL template, one embedded identifier value, and volatile params.
func moduleTraffic(rng *rand.Rand, host, ip, tmplKey, value string, n int) []*httpmodel.Packet {
	out := make([]*httpmodel.Packet, n)
	for i := range out {
		out[i] = httpmodel.Get(host, "/fetch").
			Query("zone", itoa(rng.Intn(500))).
			Query(tmplKey, value).
			Query("seq", itoa(rng.Intn(100000))).
			Dest(ipaddr.MustParse(ip), 80).
			Build()
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	s := ""
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}

func TestPipelineClustersByModule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := moduleTraffic(rng, "alpha-ads.example", "23.16.0.10", "udid", "f3a9c1d200b14e67", 8)
	b := moduleTraffic(rng, "beta-track.jp", "64.17.0.20", "device", "353918051234563", 8)
	all := append(append([]*httpmodel.Packet{}, a...), b...)

	pl := NewPipeline(Config{})
	_, groups := pl.Cluster(all)
	// The two modules must separate into (at least) two clusters, and no
	// cluster may mix hosts.
	if len(groups) < 2 {
		t.Fatalf("clusters = %d, want >= 2", len(groups))
	}
	for _, g := range groups {
		host := g[0].Host
		for _, p := range g[1:] {
			if p.Host != host {
				t.Fatalf("cluster mixes %s and %s", host, p.Host)
			}
		}
	}
}

func TestPipelineSignaturesCarryIdentifier(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pkts := moduleTraffic(rng, "alpha-ads.example", "23.16.0.10", "udid", "f3a9c1d200b14e67", 10)
	pl := NewPipeline(Config{})
	set := pl.GenerateSignatures(pkts)
	if set.Len() == 0 {
		t.Fatal("no signatures")
	}
	if set.TrainingSize != 10 {
		t.Errorf("TrainingSize = %d", set.TrainingSize)
	}
	found := false
	for _, s := range set.Signatures {
		for _, tok := range s.Tokens {
			if strings.Contains(tok, "f3a9c1d200b14e67") {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("identifier token missing: %v", set.Signatures)
	}
}

func TestPipelineDetectorRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	train := moduleTraffic(rng, "alpha-ads.example", "23.16.0.10", "udid", "f3a9c1d200b14e67", 6)
	fresh := moduleTraffic(rng, "alpha-ads.example", "23.16.0.10", "udid", "f3a9c1d200b14e67", 6)
	benign := moduleTraffic(rng, "api.other.jp", "199.18.0.4", "sid", "a1b2c3d4e5f60718", 6)

	set := NewPipeline(Config{}).GenerateSignatures(train)
	eng := NewDetector(set)
	for _, p := range fresh {
		if !eng.Matches(p) {
			t.Errorf("unseen same-module packet missed: %s", p.RequestLine())
		}
	}
	for _, p := range benign {
		if eng.Matches(p) {
			t.Errorf("benign packet matched: %s", p.RequestLine())
		}
	}
}

func TestThresholdScalesWithMetric(t *testing.T) {
	def := NewPipeline(Config{})
	if got, want := def.cutThreshold(), 0.22*6.0; got != want {
		t.Errorf("default threshold = %v, want %v", got, want)
	}
	contentOnly := NewPipeline(Config{Distance: distance.Config{DestinationWeight: -1}})
	if got, want := contentOnly.cutThreshold(), 0.22*3.0; got != want {
		t.Errorf("content-only threshold = %v, want %v", got, want)
	}
	custom := NewPipeline(Config{CutFraction: 0.5})
	if got := custom.cutThreshold(); got != 3.0 {
		t.Errorf("custom threshold = %v", got)
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.CutFraction != 0.22 {
		t.Errorf("CutFraction default = %v", cfg.CutFraction)
	}
	if cfg.Signature.MinClusterSize != 2 {
		t.Errorf("MinClusterSize default = %d", cfg.Signature.MinClusterSize)
	}
	// Explicit values survive.
	cfg = Config{CutFraction: 0.4, Signature: signature.Options{MinClusterSize: 1}}.withDefaults()
	if cfg.CutFraction != 0.4 || cfg.Signature.MinClusterSize != 1 {
		t.Errorf("explicit config overridden: %+v", cfg)
	}
}

func TestLinkageConfigRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := moduleTraffic(rng, "alpha-ads.example", "23.16.0.10", "udid", "f3a9c1d200b14e67", 5)
	b := moduleTraffic(rng, "beta-track.jp", "64.17.0.20", "device", "353918051234563", 5)
	all := append(append([]*httpmodel.Packet{}, a...), b...)
	for _, l := range []cluster.Linkage{cluster.GroupAverage, cluster.Single, cluster.Complete} {
		dend, groups := NewPipeline(Config{Linkage: l}).Cluster(all)
		if err := dend.Validate(); err != nil {
			t.Errorf("linkage %v: %v", l, err)
		}
		if len(groups) == 0 {
			t.Errorf("linkage %v: no clusters", l)
		}
		total := 0
		for _, g := range groups {
			total += len(g)
		}
		if total != len(all) {
			t.Errorf("linkage %v: clusters cover %d of %d packets", l, total, len(all))
		}
	}
}

func TestEmptyAndSingletonInput(t *testing.T) {
	pl := NewPipeline(Config{})
	set := pl.GenerateSignatures(nil)
	if set.Len() != 0 || set.TrainingSize != 0 {
		t.Errorf("empty input produced %+v", set)
	}
	one := moduleTraffic(rand.New(rand.NewSource(5)), "a.example", "23.16.0.9", "u", "deadbeefdeadbeef", 1)
	set = pl.GenerateSignatures(one)
	// Default MinClusterSize=2 skips the singleton cluster.
	if set.Len() != 0 {
		t.Errorf("singleton produced %d signatures under default config", set.Len())
	}
	everyCluster := NewPipeline(Config{Signature: signature.Options{MinClusterSize: 1}})
	set = everyCluster.GenerateSignatures(one)
	if set.Len() != 1 {
		t.Errorf("paper-mode singleton produced %d signatures", set.Len())
	}
}

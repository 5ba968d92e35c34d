package signature

import (
	"bytes"
	"math"
	"testing"

	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
)

func leakCluster(host, key, value string, n int) []*httpmodel.Packet {
	out := make([]*httpmodel.Packet, n)
	for i := range out {
		out[i] = httpmodel.Get(host, "/fetch").
			Query("zone", string(rune('1'+i%9))).
			Query(key, value).
			Dest(ipaddr.MustParse("203.0.113.4"), 80).Build()
	}
	return out
}

func benignTraffic(n int) []*httpmodel.Packet {
	out := make([]*httpmodel.Packet, n)
	for i := range out {
		out[i] = httpmodel.Get("api.benign.jp", "/v2/items").
			Query("format", "json").
			Query("page", string(rune('1'+i%9))).
			Dest(ipaddr.MustParse("198.51.100.9"), 80).Build()
	}
	return out
}

func TestBayesDetectsTrainedPattern(t *testing.T) {
	clusters := [][]*httpmodel.Packet{
		leakCluster("ads.x.jp", "udid", "f3a9c1d200b14e67", 6),
		leakCluster("trk.y.jp", "imei", "353918051234563", 6),
	}
	benign := benignTraffic(40)
	sig := GenerateBayes(clusters, benign, BayesOptions{})
	if sig.NumTokens() == 0 {
		t.Fatal("no tokens learned")
	}
	// Fresh packets with the leaked values must match.
	fresh := leakCluster("ads.x.jp", "udid", "f3a9c1d200b14e67", 3)
	for _, p := range fresh {
		if !sig.Matches(p) {
			t.Errorf("trained pattern missed: %s (score %.2f, thr %.2f)",
				p.RequestLine(), sig.ScoreContent(p.Content()), sig.Threshold)
		}
	}
	// Benign traffic must not.
	for _, p := range benignTraffic(20) {
		if sig.Matches(p) {
			t.Errorf("benign matched: %s (score %.2f)", p.RequestLine(), sig.ScoreContent(p.Content()))
		}
	}
}

func TestBayesScoresSignSensible(t *testing.T) {
	clusters := [][]*httpmodel.Packet{leakCluster("ads.x.jp", "udid", "f3a9c1d200b14e67", 8)}
	benign := benignTraffic(40)
	sig := GenerateBayes(clusters, benign, BayesOptions{})
	for i, tok := range sig.Tokens {
		// Tokens extracted from suspicious traffic that never occur in the
		// benign sample must score positive.
		inBenign := false
		for _, p := range benign {
			if bytes.Contains(p.Content(), []byte(tok)) {
				inBenign = true
			}
		}
		if !inBenign && sig.Scores[i] <= 0 {
			t.Errorf("token %q absent from benign but scored %.3f", tok, sig.Scores[i])
		}
	}
}

func TestBayesThresholdBoundsTrainingFP(t *testing.T) {
	clusters := [][]*httpmodel.Packet{leakCluster("ads.x.jp", "udid", "f3a9c1d200b14e67", 8)}
	benign := benignTraffic(200)
	sig := generateBayes(clusters, extractEach(clusters), benign, 0.01)
	fp := 0
	for _, p := range benign {
		if sig.Matches(p) {
			fp++
		}
	}
	if frac := float64(fp) / float64(len(benign)); frac > 0.02 {
		t.Errorf("training FP = %.3f, target 0.01", frac)
	}
}

func TestBayesEmptyInputs(t *testing.T) {
	sig := GenerateBayes(nil, nil, BayesOptions{})
	if sig.NumTokens() != 0 {
		t.Errorf("tokens from nothing: %d", sig.NumTokens())
	}
	if sig.Matches(benignTraffic(1)[0]) {
		t.Error("empty signature matched")
	}
	if !math.IsInf(sig.Threshold, 1) {
		t.Errorf("empty signature threshold = %v", sig.Threshold)
	}
}

func TestBayesNoBenignSample(t *testing.T) {
	clusters := [][]*httpmodel.Packet{leakCluster("ads.x.jp", "udid", "f3a9c1d200b14e67", 6)}
	sig := GenerateBayes(clusters, nil, BayesOptions{})
	fresh := leakCluster("ads.x.jp", "udid", "f3a9c1d200b14e67", 2)
	for _, p := range fresh {
		if !sig.Matches(p) {
			t.Error("trained pattern missed without benign calibration")
		}
	}
}

func TestBayesToleratesPartialTokenPresence(t *testing.T) {
	// The probabilistic advantage over conjunctions: a packet carrying most
	// but not all high-scoring tokens can still match.
	clusters := [][]*httpmodel.Packet{
		leakCluster("ads.x.jp", "udid", "f3a9c1d200b14e67", 8),
	}
	sig := GenerateBayes(clusters, benignTraffic(60), BayesOptions{})
	// A mutated module packet: same identifier parameter, but the template
	// prefix (the "GET /fetch?zone=" token) is gone.
	p := httpmodel.Get("ads.x.jp", "/v3/new-endpoint").
		Query("v", "3").
		Query("udid", "f3a9c1d200b14e67").
		Dest(ipaddr.MustParse("203.0.113.4"), 80).Build()
	if !sig.Matches(p) {
		t.Errorf("partial token presence not detected (score %.2f, thr %.2f)",
			sig.ScoreContent(p.Content()), sig.Threshold)
	}
}

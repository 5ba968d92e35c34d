package leaksig

// End-to-end acceptance for the kinded signature model: a base64-encoding
// leaker streams through an engine that starts EMPTY, the online learner
// distills the encoded traffic — the unordered conjunction dies at the
// held-out FP gate, so the subsequence fallback publishes with its kind on
// the wire — the watching engine hot-reloads, and a replay of the trace is
// flagged. Then the wire boundary itself: a hand-published decode-view
// signature catches a hex-encoded variant, an unknown kind is rejected
// with 400 at publish, and a kind-absent legacy JSON set publishes,
// fetches, compiles and matches identically to its explicit-kind twin.

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"leaksig/internal/detect"
	"leaksig/internal/engine"
	"leaksig/internal/httpmodel"
	"leaksig/internal/siggen"
	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
)

// pad3 pads s with 'x' to a multiple of 3 bytes, so a base64 encoding of
// a concatenation aligns each piece to whole 4-character groups: constant
// clear segments encode to constant base64 substrings the learner can
// extract as tokens.
func pad3(s string) string {
	for len(s)%3 != 0 {
		s += "x"
	}
	return s
}

var (
	kindedSegA = pad3("device_id=IMEI-358240051111110&")
	kindedSegB = pad3("aid=9774d56d682e549c&")
)

// b64LeakPacket is one leaking POST: identifiers in A-then-B order inside
// a base64-encoded body, 3-byte-aligned fillers varying per packet.
func b64LeakPacket(i int) *httpmodel.Packet {
	clear := fmt.Sprintf("%06d", i*1371%1000000) + kindedSegA +
		fmt.Sprintf("%06d", i*2467%1000000) + kindedSegB +
		fmt.Sprintf("%06d", i*3613%1000000)
	return httpmodel.Post("collect.exfil-cdn.example", "/v1/collect").
		App("com.adversarial.beacon").
		ID(int64(i)).
		UserAgent("Dalvik/1.6.0").
		Body([]byte("p=" + base64.StdEncoding.EncodeToString([]byte(clear)))).
		Build()
}

// b64ReversedBenignPacket carries the SAME encoded segments B-then-A: an
// unordered conjunction of the learned tokens fires on it, the ordered
// subsequence cannot.
func b64ReversedBenignPacket(i int) *httpmodel.Packet {
	clear := fmt.Sprintf("%06d", i*1371%1000000) + kindedSegB +
		fmt.Sprintf("%06d", i*2467%1000000) + kindedSegA +
		fmt.Sprintf("%06d", i*3613%1000000)
	return httpmodel.Post("collect.exfil-cdn.example", "/v1/collect").
		ID(int64(700 + i)).
		UserAgent("Dalvik/1.6.0").
		Body([]byte("p=" + base64.StdEncoding.EncodeToString([]byte(clear)))).
		Build()
}

func plainBenignPacket(i int) *httpmodel.Packet {
	return httpmodel.Get("cdn.example.org", "/static/app.css").
		ID(int64(3000+i)).
		Query("rev", fmt.Sprintf("%d", i)).
		UserAgent("Dalvik/1.6.0").
		Build()
}

func TestClosedLoopPublishesSubsequenceKind(t *testing.T) {
	// Benign corpus: overwhelmingly plain, with a few reversed encoded
	// shapes at ODD indices only — the learner deals odd indices into its
	// held-out half, so the reversed packets drive the FP gate (3 of 50 =
	// 6% > the 2% budget kills the unordered conjunction) without
	// inflating the Bayes threshold, which calibrates on the even-index
	// training half.
	var benign []*httpmodel.Packet
	for i := 0; i < 100; i++ {
		benign = append(benign, plainBenignPacket(i))
	}
	benign[11] = b64ReversedBenignPacket(0)
	benign[51] = b64ReversedBenignPacket(1)
	benign[71] = b64ReversedBenignPacket(2)

	srv := sigserver.New()
	ts := httptest.NewServer(srv.HandlerWithPublish(""))
	defer ts.Close()

	learner := siggen.NewService(siggen.Config{
		Publisher:      siggen.NewHTTPPublisherFrom(sigserver.NewClient(ts.URL, nil)),
		Benign:         benign,
		MinClusterSize: 2,
		MaxHoldoutFP:   0.02,
		Cluster:        siggen.ClusterConfig{MaxClusters: 16},
	})
	defer learner.Close()

	var mu sync.Mutex
	leaksByVersion := map[int64]int{}
	eng := engine.New(nil, engine.Config{
		Shards: 2,
		Sink:   learner.MissSink(nil),
		OnVerdict: func(v engine.Verdict) {
			if v.Leak() {
				mu.Lock()
				leaksByVersion[v.Version]++
				mu.Unlock()
			}
		},
	})
	defer eng.Close()

	client := sigserver.NewClient(ts.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		client.Watch(ctx, 50*time.Millisecond, func(set *signature.Set) { eng.Reload(set) })
	}()

	// Pass 1: the encoded leaking trace against the empty set.
	trace := make([]*httpmodel.Packet, 40)
	for i := range trace {
		trace[i] = b64LeakPacket(i)
		if err := eng.Submit(trace[i]); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()

	// One learner epoch: the conjunction candidate dies at the FP gate,
	// the ordered fallback survives and publishes with its kind set.
	published, err := learner.RunEpoch(ctx)
	if err != nil {
		t.Fatalf("learn epoch: %v", err)
	}
	if published == nil || published.Len() == 0 {
		t.Fatalf("learner published nothing; stats %+v", learner.Stats())
	}
	subseq := 0
	for _, sig := range published.Signatures {
		if sig.Kind == signature.KindSubsequence {
			subseq++
		}
	}
	if subseq == 0 {
		t.Fatalf("no subsequence-kind signature in the published set: %v, stats %+v",
			published.Signatures, learner.Stats())
	}

	// The engine hot-reloads the learned set via its watch.
	deadline := time.Now().Add(10 * time.Second)
	for eng.Version() != published.Version {
		if time.Now().After(deadline) {
			t.Fatalf("engine never reloaded to version %d (at %d)", published.Version, eng.Version())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Pass 2: the replay is flagged; reversed-order benign traffic is not.
	for _, p := range trace {
		if err := eng.Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	mu.Lock()
	flagged := leaksByVersion[published.Version]
	mu.Unlock()
	if flagged != len(trace) {
		t.Fatalf("replay flagged %d/%d packets; published %v", flagged, len(trace), published.Signatures)
	}
	for i := 0; i < 8; i++ {
		if got := eng.MatchPacket(b64ReversedBenignPacket(100 + i)); len(got) != 0 {
			t.Fatalf("ordered signature fired on reversed-order benign traffic: %v", got)
		}
	}
	t.Logf("closed loop: %d signatures (%d subsequence-kind) published as v%d; replay flagged %d/%d",
		published.Len(), subseq, published.Version, flagged, len(trace))
}

// TestKindedWireBoundary covers publish-time validation and wire
// compatibility over real HTTP: a decode-view signature published as JSON
// catches an encoded variant after hot-reload, an unknown kind is
// rejected with 400, and a kind-absent legacy set round-trips into an
// engine that matches exactly like its explicit-kind twin.
func TestKindedWireBoundary(t *testing.T) {
	srv := sigserver.New()
	ts := httptest.NewServer(srv.HandlerWithPublish(""))
	defer ts.Close()

	publish := func(body string) (*http.Response, error) {
		return http.Post(ts.URL+"/publish", "application/json", bytes.NewReader([]byte(body)))
	}

	// Unknown kinds and views bounce at the boundary with 400.
	for _, bad := range []string{
		`{"signatures":[{"id":0,"kind":"regex","tokens":["imei="]}]}`,
		`{"signatures":[{"id":0,"tokens":["imei="],"views":["rot13"]}]}`,
	} {
		resp, err := publish(bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("invalid set %s accepted with %d", bad, resp.StatusCode)
		}
	}

	// A hand-published hex-view subsequence signature (the curl shape the
	// README documents) compiles and catches a hex-encoded leak.
	resp, err := publish(`{"signatures":[{
	  "id": 0, "kind": "subsequence",
	  "tokens": ["device_id=IMEI-358240051111110", "aid=9774d56d682e549c"],
	  "host_suffix": "exfil-cdn.example", "views": ["hex"], "cluster_size": 1
	}]}`)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("view signature publish failed: %d", resp.StatusCode)
	}
	client := sigserver.NewClient(ts.URL, nil)
	fetched, _, err := client.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	eng := detect.NewEngine(fetched)
	hexBody := "p=" + hex.EncodeToString([]byte("device_id=IMEI-358240051111110&x=1&aid=9774d56d682e549c"))
	hexLeak := httpmodel.Post("collect.exfil-cdn.example", "/v1/collect").
		Body([]byte(hexBody)).Build()
	if !eng.Matches(hexLeak) {
		t.Fatal("published hex-view signature missed the hex-encoded leak")
	}
	reversed := "p=" + hex.EncodeToString([]byte("aid=9774d56d682e549c&device_id=IMEI-358240051111110"))
	if eng.Matches(httpmodel.Post("collect.exfil-cdn.example", "/v1/collect").
		Body([]byte(reversed)).Build()) {
		t.Fatal("subsequence signature ignored token order through the wire")
	}

	// Legacy wire compatibility: a set with no kind field anywhere
	// publishes, fetches and matches exactly like its explicit twin.
	legacyJSON := `{"signatures":[
	  {"id":0,"tokens":["udid=f3a9","zone="],"cluster_size":2},
	  {"id":1,"tokens":["imei=3569"],"host_suffix":"ads.example","cluster_size":2}
	]}`
	resp, err = publish(legacyJSON)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("legacy kind-absent publish failed: %d", resp.StatusCode)
	}
	legacy, _, err := client.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	explicit := &signature.Set{}
	for _, s := range legacy.Signatures {
		c := *s
		c.Kind = signature.KindConjunction
		explicit.Signatures = append(explicit.Signatures, &c)
		if s.Kind != "" {
			t.Fatalf("legacy fetch grew a kind: %q", s.Kind)
		}
	}
	le, ee := detect.NewEngine(legacy), detect.NewEngine(explicit)
	probes := []*httpmodel.Packet{
		httpmodel.Get("x.ads.example", "/a?zone=1&udid=f3a9").Build(),
		httpmodel.Get("x.ads.example", "/a?imei=3569").Build(),
		httpmodel.Get("elsewhere.example", "/a?imei=3569").Build(),
		httpmodel.Get("x.ads.example", "/benign").Build(),
	}
	for i, p := range probes {
		lg, eg := le.MatchPacket(p), ee.MatchPacket(p)
		if len(lg) != len(eg) {
			t.Fatalf("probe %d: legacy=%v explicit=%v", i, lg, eg)
		}
		for j := range lg {
			if lg[j] != eg[j] {
				t.Fatalf("probe %d: legacy=%v explicit=%v", i, lg, eg)
			}
		}
	}
}

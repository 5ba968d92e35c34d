package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"leaksig/internal/engine"
	"leaksig/internal/eval"
	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
	"leaksig/internal/siggen"
	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
	"leaksig/internal/trafficgen"
)

// siggendDefaults is siggend as cmd/siggend configures it when no flag
// is given.
func siggendDefaults() Siggend {
	return Siggend{
		Interval: 30 * time.Second, TenantBy: "app",
		Reservoir: 256, MaxTenants: 64, MaxClusters: 64, MaxMembers: 64, MinCluster: 3,
		Join: 0.22, MaxFP: 0.01, MinSamples: 8, Seed: 1,
	}
}

// runSiggend starts c listening on a free loopback port and returns its
// base URL and a stop that cancels it and waits for Run — and so for
// its final epoch and checkpoint — to return.
func runSiggend(t *testing.T, c Siggend) (base string, stop func()) {
	t.Helper()
	c.Listen = freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx, strings.NewReader(""), io.Discard) }()
	base = "http://" + c.Listen
	awaitBody(t, base+"/healthz", "ok")
	return base, func() {
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("siggend Run returned %v, want nil", err)
		}
	}
}

// newSigserver is an in-process sigserver that accepts publishes.
func newSigserver(t *testing.T) (*sigserver.Server, string) {
	srv := sigserver.New()
	hs := httptest.NewServer(srv.HandlerWithPublish(""))
	t.Cleanup(hs.Close)
	return srv, hs.URL
}

// ndjson encodes packets one per line, as a capture file holds them.
func ndjson(t *testing.T, ps []*httpmodel.Packet) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, p := range ps {
		if err := enc.Encode(p); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// TestLeakstreamShipsMissesLikeInProcessLearner streams a seeded batch
// through leakstream -learn into a real siggend and checks that the
// learner learns what it would have learned in-process.
//
// engine: one shard, siggend -tenant-by none. The set siggend publishes
// must be identical to the one a siggen.Service with siggend's defaults
// publishes after the same packets went through an engine straight into
// its MissSink: shipping misses over HTTP loses, duplicates and
// reorders none.
//
// pool: leakstream -pool -tenant-by app into siggend -tenant-by app
// -tenant-sets; every leaking app must get a named set. How the
// tenants' engines interleave their misses is not deterministic, so the
// fingerprints are not compared.
func TestLeakstreamShipsMissesLikeInProcessLearner(t *testing.T) {
	t.Run("engine", func(t *testing.T) {
		captureLog(t)
		stream := eval.NewEnv(trafficgen.Config{Seed: 3, NumApps: 40, TotalPackets: 2000}).SampleSuspicious(3, 240)
		input := ndjson(t, stream)

		// One signature on the first query pair that some packets carry
		// and most do not: those packets are leaks, and must not reach
		// the learner.
		count := map[string]int{}
		var pairs []string
		for _, p := range stream {
			_, query, _ := strings.Cut(p.Path, "?")
			for _, pair := range strings.Split(query, "&") {
				if count[pair]++; count[pair] == 1 {
					pairs = append(pairs, pair)
				}
			}
		}
		token, hits := "", 0
		for _, pair := range pairs {
			if strings.Contains(pair, "=") && count[pair] > 1 && count[pair] < len(stream)/2 {
				token, hits = pair, count[pair]
				break
			}
		}
		if token == "" {
			t.Fatal("no query pair in the stream to build a signature on")
		}
		set := &signature.Set{Signatures: []*signature.Signature{{ID: 1, Tokens: []string{token}}}}
		sigs := writeSet(t, set)

		d := siggendDefaults()
		d.TenantBy, d.Interval = "none", time.Hour
		shippedSrv, shippedURL := newSigserver(t)
		d.Server = shippedURL
		learnURL, stop := runSiggend(t, d)
		err := Leakstream{
			Sigs: sigs, Shards: 1, Affinity: "host", TenantBy: "app", RatePolicy: "drop", Ops: Ops{Learn: learnURL},
		}.Run(context.Background(), bytes.NewReader(input), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		var st struct{ Observed, SinkDropped int }
		resp, err := http.Get(learnURL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || st.Observed != len(stream)-hits || st.SinkDropped != 0 {
			t.Fatalf("siggend observed %d and dropped %d (%v), want the %d misses of %d packets", st.Observed, st.SinkDropped, err, len(stream)-hits, len(stream))
		}
		stop() // the final epoch publishes
		shipped, _ := shippedSrv.Current()

		refSrv, refURL := newSigserver(t)
		svc := siggen.NewService(siggen.Config{
			Cluster:             siggen.ClusterConfig{JoinFraction: d.Join, MaxClusters: d.MaxClusters, MaxMembers: d.MaxMembers},
			ReservoirSize:       d.Reservoir,
			MaxTenantReservoirs: d.MaxTenants,
			MinClusterSize:      d.MinCluster,
			MaxHoldoutFP:        d.MaxFP,
			GenerateInterval:    d.Interval,
			MinNewSamples:       d.MinSamples,
			Seed:                d.Seed,
			Publisher:           siggen.NewHTTPPublisherFrom(sigserver.NewClient(refURL, nil)),
		})
		defer svc.Close()
		eng := engine.New(set, engine.Config{Shards: 1, Sink: svc.MissSink(nil)})
		if _, _, err := httpmodel.ReadNDJSON(bytes.NewReader(input), eng.Submit, func(line int, err error) {
			t.Fatalf("line %d: %v", line, err)
		}); err != nil {
			t.Fatal(err)
		}
		eng.Close()
		if _, err := svc.RunEpoch(context.Background()); err != nil {
			t.Fatal(err)
		}
		if st := svc.Stats(); st.SinkDropped != 0 || st.Observed != uint64(len(stream)-hits) {
			t.Fatalf("reference learner observed %d and dropped %d, want all %d misses", st.Observed, st.SinkDropped, len(stream)-hits)
		}
		want, _ := refSrv.Current()

		if want.Len() == 0 {
			t.Fatal("the in-process learner published nothing; the comparison would be vacuous")
		}
		got, _ := json.Marshal(shipped)
		wantJSON, _ := json.Marshal(want)
		if !bytes.Equal(got, wantJSON) {
			t.Fatalf("siggend fed by leakstream published\n%s\nthe in-process learner published\n%s", got, wantJSON)
		}
	})

	t.Run("pool", func(t *testing.T) {
		captureLog(t)
		// Four apps, each leaking a different identifier to its own
		// destination, so no cluster mixes them.
		type leaker struct{ app, host, ip, path, key, value string }
		leakers := []leaker{
			{"com.alpha", "ads.alpha-network.example", "23.11.4.7", "/track", "device_id", "IMEI-358240051111110"},
			{"com.bravo", "metrics.bravo-analytics.example", "64.90.12.3", "/v2/collect/event", "aid", "9774d56d682e549c"},
			{"com.charlie", "sdk.charlie-cdn.example", "151.101.8.44", "/beacon.gif", "mac", "00:11:22:33:44:55"},
			{"com.delta", "api.delta-push.example", "203.0.113.80", "/register", "imsi", "310260000000000"},
		}
		var stream []*httpmodel.Packet
		for i := 0; i < 40*len(leakers); i++ {
			l := leakers[i%len(leakers)]
			stream = append(stream, httpmodel.Get(l.host, l.path).ID(int64(i)).App(l.app).Dest(ipaddr.MustParse(l.ip), 80).
				Query("n", fmt.Sprint(i%7)).Query(l.key, l.value).UserAgent("Dalvik/1.6.0").Build())
		}

		d := siggendDefaults()
		d.TenantSets, d.Interval = true, time.Hour
		srv, srvURL := newSigserver(t)
		d.Server = srvURL
		learnURL, stop := runSiggend(t, d)
		err := Leakstream{
			Pool: true, TenantBy: "app", Shards: 1, MaxTenants: 1024, Affinity: "host", RatePolicy: "drop",
			Ops: Ops{Learn: learnURL},
		}.Run(context.Background(), bytes.NewReader(ndjson(t, stream)), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		stop()
		for _, l := range leakers {
			if set, version, ok := srv.CurrentNamed(l.app); !ok || version == 0 || set.Len() == 0 {
				t.Errorf("no named set published for leaking app %s (server %+v)", l.app, srv.Stats())
			}
		}
	})
}

// TestLearnMustBeAnHTTPURL gives both learning daemons -learn values
// that are not a siggend base URL — among them the flag a script
// written for a bool -learn leaves in -learn's place — and wants an
// error from Run before anything listens, instead of a daemon that
// ships every miss to "-pool/observe". An absolute http(s) URL starts.
func TestLearnMustBeAnHTTPURL(t *testing.T) {
	captureLog(t)
	daemons := map[string]func(ctx context.Context, learn string) error{
		"leakstream": func(ctx context.Context, learn string) error {
			return Leakstream{
				Listen: freeAddr(t), Affinity: "host", TenantBy: "app", RatePolicy: "drop", Ops: Ops{Learn: learn},
			}.Run(ctx, strings.NewReader(""), io.Discard)
		},
		"flowproxy": func(ctx context.Context, learn string) error {
			return Flowproxy{Addr: freeAddr(t), Policy: "block", Ops: Ops{Learn: learn}}.Run(ctx, nil, io.Discard)
		},
	}
	for name, run := range daemons {
		t.Run(name, func(t *testing.T) {
			for _, learn := range []string{"-pool", "-learn-tenants", "-policy", "127.0.0.1:8810", "siggend:8810", "ftp://127.0.0.1:8810", "http://", "/observe", "http//127.0.0.1:8810"} {
				// A daemon that took the value would serve until the deadline
				// and then return nil.
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				err := run(ctx, learn)
				cancel()
				if err == nil || !strings.Contains(err.Error(), "-learn") {
					t.Errorf("-learn %q: Run returned %v, want an error naming -learn", learn, err)
				}
			}
			for _, learn := range []string{"http://127.0.0.1:8810", "https://siggend.example/learner/"} {
				ctx, cancel := context.WithCancel(context.Background())
				cancel() // started, then stopped at once
				if err := run(ctx, learn); err != nil {
					t.Errorf("-learn %q: Run returned %v, want nil", learn, err)
				}
			}
		})
	}
}

// TestLearnShipperCountsUploadFailures points the learn shipper at an
// intake that answers 500: the failed POST must show in
// leaksig_shipper_upload_failures_total{stream="learn"}, and the
// abandoned miss in the dropped counter, not the shipped one.
func TestLearnShipperCountsUploadFailures(t *testing.T) {
	var posts atomic.Int32
	intake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		http.Error(w, "learner down", http.StatusInternalServerError)
	}))
	defer intake.Close()
	ops, err := newOps("leakstream", Ops{Learn: intake.URL}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ops.learn.Ship(httpmodel.Get("ads.example", "/t?n=1").ID(1).Build())
	ops.close() // the final pass makes one attempt

	rec := httptest.NewRecorder()
	ops.reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		`leaksig_shipper_upload_failures_total{stream="learn"} 1` + "\n",
		`leaksig_shipper_dropped_total{stream="learn",reason="upload_abandoned"} 1` + "\n",
		`leaksig_shipper_shipped_total{stream="learn"} 0` + "\n",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics lacks %q after %d failed POST(s):\n%s", want, posts.Load(), rec.Body)
		}
	}
}

// TestLearnBufferDropsStayOutOfTheFlightRecorder overflows the learn
// shipper's buffer while siggend holds the first POST: the misses it
// drops must show in the shipper's dropped count and nowhere in the
// flight recorder, whose drop-burst trigger is for packets the engine
// sheds, not for a slow learner.
func TestLearnBufferDropsStayOutOfTheFlightRecorder(t *testing.T) {
	release := make(chan struct{})
	intake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		io.Copy(io.Discard, r.Body)
	}))
	defer intake.Close()
	ops, err := newOps("leakstream", Ops{Learn: intake.URL}, 1)
	if err != nil {
		t.Fatal(err)
	}
	const misses = 6000 // past the 4,096-record buffer and one 256-record batch in flight
	sink := ops.missSink().Bind(0, 1)
	for i := range misses {
		sink.Batch([]engine.Verdict{{Packet: httpmodel.Get("ads.example", "/t").ID(int64(i)).Build()}})
	}
	_, dropped, _ := ops.learn.Counts()
	if dropped == 0 {
		t.Fatalf("shipped %d misses into a held intake and none dropped; the buffer never filled", misses)
	}
	if st := ops.flight.Stats(); st.Recorded != 0 || st.Triggers != 0 {
		t.Errorf("flight recorder saw the learn drops: %d events recorded, %d triggers; want none", st.Recorded, st.Triggers)
	}
	close(release)
	ops.close()
	if sent, dropped, _ := ops.learn.Counts(); sent+dropped != misses {
		t.Errorf("forwarded %d + dropped %d = %d, want every one of %d misses accounted for", sent, dropped, sent+dropped, misses)
	}
}

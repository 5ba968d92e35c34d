package leaksig

// End-to-end integration test across the file-based workflow the command
// line tools implement: generate a capture to disk, reload it, rebuild the
// ground truth from the device file, learn signatures, persist them, reload
// them, and verify detection — every serialization boundary crossed once.

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"leaksig/internal/android"
	"leaksig/internal/capture"
	"leaksig/internal/core"
	"leaksig/internal/detect"
	"leaksig/internal/engine"
	"leaksig/internal/httpmodel"
	"leaksig/internal/sensitive"
	"leaksig/internal/siggen"
	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
	"leaksig/internal/trafficgen"
)

func TestFileBasedPipeline(t *testing.T) {
	dir := t.TempDir()
	capPath := filepath.Join(dir, "capture.jsonl")
	devPath := filepath.Join(dir, "device.json")
	sigPath := filepath.Join(dir, "signatures.json")

	// --- leakgen ---
	ds := trafficgen.Generate(trafficgen.Config{Seed: 21, NumApps: 120, TotalPackets: 10000})
	if err := ds.Capture.SaveJSONL(capPath); err != nil {
		t.Fatal(err)
	}
	devRaw, err := json.Marshal(ds.Device)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(devPath, devRaw, 0o644); err != nil {
		t.Fatal(err)
	}

	// --- leakcluster: reload everything from disk ---
	set, err := capture.LoadJSONL(capPath)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != ds.Capture.Len() {
		t.Fatalf("capture round trip lost packets: %d vs %d", set.Len(), ds.Capture.Len())
	}
	var dev android.Device
	if err := json.Unmarshal(mustRead(t, devPath), &dev); err != nil {
		t.Fatal(err)
	}
	oracle := sensitive.NewOracle(&dev)
	suspicious := set.Filter(oracle.IsSensitive)
	if suspicious.Len() == 0 {
		t.Fatal("no suspicious packets after reload")
	}
	sample := suspicious.Sample(rand.New(rand.NewSource(5)), 120)
	sigs := core.NewPipeline(core.Config{}).GenerateSignatures(sample.Packets)
	if sigs.Len() == 0 {
		t.Fatal("no signatures")
	}
	sf, err := os.Create(sigPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := sigs.WriteJSON(sf); err != nil {
		t.Fatal(err)
	}
	sf.Close()

	// --- leakdetect: reload signatures, score ---
	sf2, err := os.Open(sigPath)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := signature.ReadJSON(sf2)
	sf2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Len() != sigs.Len() {
		t.Fatalf("signature round trip: %d vs %d", reloaded.Len(), sigs.Len())
	}
	labels := make([]bool, set.Len())
	for i, p := range set.Packets {
		labels[i] = oracle.IsSensitive(p)
	}
	res := detect.Evaluate(detect.NewEngine(reloaded), set, labels, sample.Len())
	if res.TruePositiveRate < 0.4 {
		t.Errorf("end-to-end TP = %.2f, implausibly low", res.TruePositiveRate)
	}
	if res.FalsePositiveRate > 0.1 {
		t.Errorf("end-to-end FP = %.3f, implausibly high", res.FalsePositiveRate)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamingPipeline is the deployment loop end to end: a signature
// server publishes, a watching client hot-reloads the streaming engine,
// packets flow continuously, and a mid-stream publish flips verdicts
// without a restart or a dropped packet.
func TestStreamingPipeline(t *testing.T) {
	ds := trafficgen.Generate(trafficgen.Config{Seed: 33, NumApps: 80, TotalPackets: 6000})
	oracle := sensitive.NewOracle(ds.Device)
	suspicious := ds.Capture.Filter(oracle.IsSensitive)
	sample := suspicious.Sample(rand.New(rand.NewSource(9)), 100)
	sigs := core.NewPipeline(core.Config{}).GenerateSignatures(sample.Packets)
	if sigs.Len() == 0 {
		t.Fatal("no signatures")
	}

	// Signature server + HTTP transport.
	srv := sigserver.New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Publish("", sigs) // version 1

	// Streaming engine fed by a sigserver watch.
	var mu sync.Mutex
	byVersion := map[int64]int{}
	var processed int
	eng := engine.New(nil, engine.Config{Shards: 2, OnVerdict: func(v engine.Verdict) {
		mu.Lock()
		processed++
		if v.Leak() {
			byVersion[v.Version]++
		}
		mu.Unlock()
	}})

	client := sigserver.NewClient(ts.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		client.Watch(ctx, 50*time.Millisecond, func(set *signature.Set) { eng.Reload(set) })
	}()
	waitForVersion := func(v int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for eng.Version() != v {
			if time.Now().After(deadline) {
				t.Fatalf("engine never reached version %d (at %d)", v, eng.Version())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitForVersion(1)

	// Phase 1: stream everything under v1; expect the batch matcher's
	// verdict count, attributed to version 1.
	for _, p := range ds.Capture.Packets {
		if err := eng.Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	want := 0
	for _, m := range detect.MatchSetWith(detect.NewEngine(sigs), ds.Capture) {
		if m {
			want++
		}
	}
	mu.Lock()
	if byVersion[1] != want {
		mu.Unlock()
		t.Fatalf("v1 leaks = %d, batch matcher says %d", byVersion[1], want)
	}
	mu.Unlock()

	// Phase 2: publish an empty set mid-stream; after the rollover the
	// same traffic must produce zero leaks, all without restarting.
	srv.Publish("", &signature.Set{})
	waitForVersion(2)
	for _, p := range ds.Capture.Packets {
		if err := eng.Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()

	mu.Lock()
	defer mu.Unlock()
	if processed != 2*ds.Capture.Len() {
		t.Fatalf("processed %d packets, want %d (drops across rollover?)", processed, 2*ds.Capture.Len())
	}
	if byVersion[2] != 0 {
		t.Fatalf("empty v2 set still produced %d leaks", byVersion[2])
	}
	m := eng.Metrics()
	if m.Reloads < 2 || m.Version != 2 {
		t.Errorf("engine metrics after rollover: reloads=%d version=%d", m.Reloads, m.Version)
	}
	cancel()
	<-watchDone
}

// TestClosedLoopOnlineGeneration is the acceptance test for the online
// generation subsystem: an engine starts on an EMPTY signature set, a
// leaking trace streams through it (every packet a miss), and the siggen
// learner — fed only by the engine's miss sink, publishing over the
// sigserver HTTP API, with the engine hot-reloading via Watch — must
// close the loop so that a replay of the same trace is flagged. No
// leakgen/leakcluster invocation anywhere.
func TestClosedLoopOnlineGeneration(t *testing.T) {
	ds := trafficgen.Generate(trafficgen.Config{Seed: 44, NumApps: 60, TotalPackets: 5000})
	oracle := sensitive.NewOracle(ds.Device)
	leaking := ds.Capture.Filter(oracle.IsSensitive)
	benign := ds.Capture.Filter(func(p *httpmodel.Packet) bool { return !oracle.IsSensitive(p) })
	if leaking.Len() == 0 || benign.Len() == 0 {
		t.Fatal("degenerate dataset")
	}
	trace := leaking.Sample(rand.New(rand.NewSource(3)), 250).Packets
	benignCorpus := benign.Sample(rand.New(rand.NewSource(4)), 300).Packets

	// Distribution server over real HTTP, publish endpoint mounted.
	srv := sigserver.New()
	ts := httptest.NewServer(srv.HandlerWithPublish(""))
	defer ts.Close()

	// The learner, publishing through the HTTP API like cmd/siggend.
	learner := siggen.NewService(siggen.Config{
		Publisher:      siggen.NewHTTPPublisherFrom(sigserver.NewClient(ts.URL, nil)),
		Benign:         benignCorpus,
		MinClusterSize: 2,
		MaxHoldoutFP:   0.02,
		Cluster:        siggen.ClusterConfig{MaxClusters: 32},
	})
	defer learner.Close()

	// The engine: empty set, miss sink into the learner, verdict counts
	// by version for the replay assertion.
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

	// The engine watches the same server the learner publishes into.
	client := sigserver.NewClient(ts.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		client.Watch(ctx, 50*time.Millisecond, func(set *signature.Set) { eng.Reload(set) })
	}()

	// Pass 1: the leaking trace against the empty set — all misses, all
	// sampled by the learner.
	for _, p := range trace {
		if err := eng.Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	mu.Lock()
	if len(leaksByVersion) != 0 {
		mu.Unlock()
		t.Fatal("empty set produced leak verdicts")
	}
	mu.Unlock()

	// One learner epoch: cluster, distill, publish.
	published, err := learner.RunEpoch(ctx)
	if err != nil {
		t.Fatalf("learn epoch: %v", err)
	}
	if published == nil || published.Len() == 0 {
		t.Fatalf("learner published nothing; stats %+v", learner.Stats())
	}
	if _, v := srv.Current(); v != published.Version {
		t.Fatalf("server at %d, published %d", v, published.Version)
	}

	// The engine must hot-reload the generated set via its watch.
	deadline := time.Now().Add(10 * time.Second)
	for eng.Version() != published.Version {
		if time.Now().After(deadline) {
			t.Fatalf("engine never reloaded to version %d (at %d)", published.Version, eng.Version())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Pass 2: replay the same trace; the learned signatures must flag it.
	for _, p := range trace {
		if err := eng.Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	mu.Lock()
	flagged := leaksByVersion[published.Version]
	mu.Unlock()
	if flagged == 0 {
		t.Fatalf("replay of the leaking trace was not flagged; published %d signatures, stats %+v",
			published.Len(), learner.Stats())
	}
	t.Logf("closed loop: %d signatures published as v%d; replay flagged %d/%d packets",
		published.Len(), published.Version, flagged, len(trace))

	// The learned set must not blanket-match benign traffic.
	benignHits := 0
	for _, p := range benignCorpus {
		if len(eng.MatchPacket(p)) > 0 {
			benignHits++
		}
	}
	if frac := float64(benignHits) / float64(len(benignCorpus)); frac > 0.10 {
		t.Errorf("learned set matches %.0f%% of benign traffic", frac*100)
	}

	// Stale-publish guard: replaying the published version must bounce
	// without disturbing the server.
	stale := &signature.Set{Version: published.Version}
	if _, err := srv.Publish("", stale); err == nil {
		t.Fatal("stale publish was accepted")
	}
	if st := srv.Stats(); st.PublishesRejected == 0 {
		t.Fatal("rejection not counted")
	}
	cancel()
	<-watchDone
}

// TestPerTenantClosedLoopIsolationAndRetirement is the acceptance test
// for the per-tenant signature lifecycle (learn → publish → pin →
// retire): a multi-tenant pool starts on an EMPTY set, tenant A streams
// leaking traffic while tenant B stays clean, and the learner —
// distilling one named set per tenant, publishing over the sigserver
// /sets/{name} HTTP API, with the pool pinning named sets via a
// WatchSets → ReloadTenant wire — must close the loop so that tenant A's
// replayed trace is flagged while the SAME trace under tenant B's key is
// not. Then the population goes quiet: staleness pruning retires the
// source clusters, the learner publishes shrunken (empty) versions, and
// the pool converges off the retired signatures without a restart.
func TestPerTenantClosedLoopIsolationAndRetirement(t *testing.T) {
	leakPkt := func(i int) *httpmodel.Packet {
		return httpmodel.Get("ads.tracker-net.example", "/ad/fetch").
			App("com.a").
			ID(int64(i)).
			Query("zone", "7").
			Query("device_id", "IMEI-358240051111110").
			Query("aid", "9774d56d682e549c").
			UserAgent("Dalvik/1.6.0").
			Build()
	}
	benignPkt := func(i int) *httpmodel.Packet {
		return httpmodel.Get("cdn.example.org", "/static/app.css").
			App("com.b").
			ID(int64(5000+i)).
			Query("rev", "42").
			UserAgent("Dalvik/1.6.0").
			Build()
	}

	// Distribution server over real HTTP, named publish endpoints mounted.
	srv := sigserver.New()
	ts := httptest.NewServer(srv.HandlerWithPublish(""))
	defer ts.Close()

	// The learner distills per-tenant sets, its gates calibrated on a
	// benign corpus (so tenant B's clean browsing never becomes a
	// signature); aggressive staleness so the retirement phase needs only
	// one idle epoch.
	benignCorpus := make([]*httpmodel.Packet, 100)
	for i := range benignCorpus {
		benignCorpus[i] = benignPkt(9000 + i)
	}
	learner := siggen.NewService(siggen.Config{
		Publisher:      siggen.NewHTTPPublisherFrom(sigserver.NewClient(ts.URL, nil)),
		TenantSets:     true,
		MinClusterSize: 2,
		Benign:         benignCorpus,
		Cluster:        siggen.ClusterConfig{StaleEpochs: 1},
	})
	defer learner.Close()

	// The pool: empty default set, per-tenant miss sinks into the learner.
	pool := engine.NewPool(nil, engine.PoolConfig{
		Engine: engine.Config{Shards: 1},
		TenantSink: func(key string) engine.Sink {
			return learner.MissSink(func(*httpmodel.Packet) string { return key })
		},
	})
	defer pool.Close()

	// Strict-isolation watch: each named set pins its tenant. The global
	// set (the union across tenants) is deliberately not installed as the
	// pool default — that would let tenant A's signatures fire on every
	// unpinned tenant, the exact leakage this lifecycle exists to prevent.
	client := sigserver.NewClient(ts.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		client.WatchSets(ctx, 50*time.Millisecond, func(name string, set *signature.Set) {
			if name == "" {
				return
			}
			pool.ReloadTenant(name, set)
		})
	}()

	// Pass 1: tenant A leaks, tenant B browses. Everything is a miss
	// against the empty sets; only tenant A's reservoir fills with leak
	// shapes.
	for i := 0; i < 40; i++ {
		if err := pool.Submit("tenant-a", leakPkt(i)); err != nil {
			t.Fatal(err)
		}
		if err := pool.Submit("tenant-b", benignPkt(i)); err != nil {
			t.Fatal(err)
		}
	}
	pool.Flush()

	// One learner epoch: cluster per tenant, distill, publish named sets.
	published, err := learner.RunEpoch(ctx)
	if err != nil {
		t.Fatalf("learn epoch: %v", err)
	}
	if published == nil || published.Len() == 0 {
		t.Fatalf("learner published no global set; stats %+v", learner.Stats())
	}
	setA, vA, _ := srv.CurrentNamed("tenant-a")
	if vA == 0 || setA.Len() == 0 {
		t.Fatalf("tenant-a named set missing: v=%d len=%d; stats %+v", vA, setA.Len(), learner.Stats())
	}

	// The pool must pin tenant A through the named-set watch.
	waitTenantVersion := func(key string, v int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if eng := pool.Tenant(key); eng != nil && eng.Version() == v {
				return
			}
			if time.Now().After(deadline) {
				eng := pool.Tenant(key)
				t.Fatalf("tenant %s never reloaded to version %d (at %d)", key, v, eng.Version())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitTenantVersion("tenant-a", vA)

	// Pass 2: replay. Tenant A's trace is flagged under tenant A's key —
	// and the SAME trace under tenant B's key is not: B never exhibited
	// that traffic, so A's learned signatures must not fire on it.
	aHits := 0
	for i := 0; i < 40; i++ {
		if len(pool.Tenant("tenant-a").MatchPacket(leakPkt(1000+i))) > 0 {
			aHits++
		}
		if got := pool.Tenant("tenant-b").MatchPacket(leakPkt(1000 + i)); len(got) != 0 {
			t.Fatalf("tenant-a's learned signatures fired on tenant-b (matched %v)", got)
		}
		if got := pool.Tenant("tenant-b").MatchPacket(benignPkt(1000 + i)); len(got) != 0 {
			t.Fatalf("tenant-b's own traffic flagged (matched %v)", got)
		}
	}
	if aHits == 0 {
		t.Fatalf("tenant-a replay was not flagged; published %d signatures", setA.Len())
	}
	t.Logf("per-tenant loop: tenant-a set v%d (%d signatures) flagged %d/40 replayed packets; tenant-b clean",
		vA, setA.Len(), aHits)

	// Phase 3: drift retirement. The population goes quiet; idle epochs
	// age its clusters out, and the learner must publish shrunken
	// versions — empty sets — that the watch delivers to the pool.
	var retired *signature.Set
	for i := 0; i < 4 && retired == nil; i++ {
		set, err := learner.RunEpoch(ctx)
		if err != nil {
			t.Fatalf("idle epoch %d: %v", i, err)
		}
		if set != nil && set.Len() == 0 {
			retired = set
		}
	}
	if retired == nil {
		t.Fatalf("drift retirement never published; stats %+v", learner.Stats())
	}
	setA2, vA2, _ := srv.CurrentNamed("tenant-a")
	if setA2.Len() != 0 || vA2 <= vA {
		t.Fatalf("tenant-a named set not retired: %d sigs at v%d (was v%d)", setA2.Len(), vA2, vA)
	}
	waitTenantVersion("tenant-a", vA2)
	for i := 0; i < 40; i++ {
		if got := pool.Tenant("tenant-a").MatchPacket(leakPkt(2000 + i)); len(got) != 0 {
			t.Fatalf("retired signatures still fire on tenant-a (matched %v)", got)
		}
	}
	if st := learner.Stats(); st.RetiredSig == 0 {
		t.Fatalf("no retirement counted: %+v", st)
	}
	t.Logf("drift retirement: tenant-a converged to empty v%d; global empty v%d", vA2, retired.Version)
	cancel()
	<-watchDone
}

package siggen

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"leaksig/internal/detect"
	"leaksig/internal/engine"
	"leaksig/internal/httpmodel"
	"leaksig/internal/ipaddr"
	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
)

// leakPacket fabricates one "leaking" request: a stable ad-tracker shape
// carrying a device identifier, with minor per-call jitter so clustering
// has real work to do.
func leakPacket(app string, i int) *httpmodel.Packet {
	return httpmodel.Get("ads.tracker-net.example", "/ad/fetch").
		App(app).
		ID(int64(i)).
		Dest(ipaddr.FromOctets(10, 1, 2, 3), 80).
		Query("zone", fmt.Sprintf("%d", i%7)).
		Query("device_id", "IMEI-358240051111110").
		Query("aid", "9774d56d682e549c").
		UserAgent("Dalvik/1.6.0").
		Build()
}

// benignPacket fabricates one clean request with no identifier material.
func benignPacket(i int) *httpmodel.Packet {
	return httpmodel.Get("cdn.example.org", "/static/style.css").
		ID(int64(1000+i)).
		Dest(ipaddr.FromOctets(192, 0, 2, 9), 80).
		Query("rev", fmt.Sprintf("%d", i)).
		UserAgent("Dalvik/1.6.0").
		Build()
}

func TestReservoirBoundsUnderBurst(t *testing.T) {
	const capacity = 32
	r := newReservoir(capacity)
	rng := rand.New(rand.NewSource(1))
	// A 100k-packet burst must never grow storage past capacity.
	for i := 0; i < 100_000; i++ {
		r.offer(sample{tenant: "app", p: leakPacket("app", i)}, rng)
		if r.size() > capacity {
			t.Fatalf("reservoir grew to %d (cap %d) at offer %d", r.size(), capacity, i)
		}
	}
	if r.size() != capacity {
		t.Fatalf("reservoir holds %d after burst, want full %d", r.size(), capacity)
	}
	// The sample must not be the first-capacity prefix: algorithm R keeps
	// replacing, so at least one stored ID should come from the later
	// 99% of the stream.
	late := 0
	for _, smp := range r.buf {
		if smp.p.ID >= capacity {
			late++
		}
	}
	if late == 0 {
		t.Fatal("reservoir kept only the stream prefix; replacement never happened")
	}
	// take drains and resets.
	got := r.take()
	if len(got) != capacity || r.size() != 0 || r.seen != 0 {
		t.Fatalf("take: got %d packets, size now %d, seen %d", len(got), r.size(), r.seen)
	}
}

// admitQueued returns once the owner goroutine has admitted every miss
// observed so far: a no-op call runs only after them.
func admitQueued(t *testing.T, svc *Service) {
	t.Helper()
	if err := svc.call(func() {}); err != nil {
		t.Fatal(err)
	}
}

func TestServiceIntakeBoundsUnderBurstAcrossTenants(t *testing.T) {
	const (
		resSize    = 16
		maxTenants = 4
	)
	svc := NewService(Config{
		ReservoirSize:       resSize,
		MaxTenantReservoirs: maxTenants,
		IntakeDepth:         256,
	})
	defer svc.Close()

	// Burst 4× more tenants than reservoir slots, interleaved the way
	// engine shards interleave tenants, from concurrent producers.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("tenant-%d", i%(4*maxTenants))
				svc.Observe(key, leakPacket(key, i))
			}
		}(w)
	}
	wg.Wait()

	admitQueued(t, svc)
	st := svc.Stats()
	if st.Admitted != st.Observed {
		t.Fatalf("intake never drained: %+v", st)
	}
	if st.Tenants > maxTenants {
		t.Fatalf("%d private reservoirs, cap %d", st.Tenants, maxTenants)
	}
	// Private reservoirs plus the shared overflow reservoir.
	if max := (maxTenants + 1) * resSize; st.PendingSamples > max {
		t.Fatalf("%d pending samples, bound %d", st.PendingSamples, max)
	}
	if st.OverflowTenants == 0 {
		t.Fatal("no admissions were routed to the overflow reservoir")
	}
	if st.Observed == 0 {
		t.Fatal("nothing observed")
	}
}

func TestMissSinkFeedsOnlyMisses(t *testing.T) {
	svc := NewService(Config{IntakeDepth: 64})
	defer svc.Close()
	sink := svc.MissSink(nil).Bind(0, 1)
	sink.Batch([]engine.Verdict{
		{Packet: leakPacket("a", 1), Matched: []int{0}}, // a hit: ignored
		{Packet: leakPacket("a", 2)},                    // a miss: learned
	})
	if got := svc.Stats().Observed; got != 1 {
		t.Fatalf("observed %d, want 1 (misses only)", got)
	}
}

func TestClustererGroupsSimilarPackets(t *testing.T) {
	c := NewClusterer(ClusterConfig{MaxClusters: 8, MaxMembers: 16}, 1)
	for i := 0; i < 10; i++ {
		c.Observe(leakPacket("com.game", i))
	}
	for i := 0; i < 10; i++ {
		c.Observe(benignPacket(i))
	}
	if c.Len() < 2 {
		t.Fatalf("expected the two populations to form >= 2 clusters, got %d", c.Len())
	}
	st := c.Compact()
	if st.Clusters != c.Len() || st.Members != c.members() {
		t.Fatalf("compact stats inconsistent: %+v vs len=%d members=%d", st, c.Len(), c.members())
	}
	// The leak population must sit together in one cluster of >= 10.
	var big int
	for _, g := range c.Groups(2) {
		if len(g) > big {
			big = len(g)
		}
	}
	if big < 10 {
		t.Fatalf("largest cluster has %d members, want the 10-packet leak population together", big)
	}
}

func TestClustererBoundsAndStaleness(t *testing.T) {
	c := NewClusterer(ClusterConfig{MaxClusters: 4, MaxMembers: 8, StaleEpochs: 2}, 1)
	// Far-apart hosts so nothing joins: table fills, then rejects.
	for i := 0; i < 12; i++ {
		host := fmt.Sprintf("host-%c%c.example-%d.com", 'a'+i%26, 'a'+(i*7)%26, i)
		p := httpmodel.Get(host, "/x").Dest(ipaddr.FromOctets(byte(i), byte(i*3), 7, 1), uint16(1000+i*13)).
			Query("payload", fmt.Sprintf("%032x", i*7919)).Build()
		c.Observe(p)
	}
	if c.Len() > 4 {
		t.Fatalf("cluster table grew to %d, cap 4", c.Len())
	}
	if c.rejectedCount() == 0 {
		t.Fatal("full table never rejected an arrival")
	}
	// Member windows stay bounded too.
	for i := 0; i < 100; i++ {
		c.Observe(leakPacket("app", i))
	}
	for _, g := range c.Groups(1) {
		if len(g) > 8 {
			t.Fatalf("cluster holds %d members, cap 8", len(g))
		}
	}
	// Idle clusters age out after StaleEpochs compactions.
	before := c.Len()
	for i := 0; i < 4; i++ {
		c.Compact()
	}
	if c.Len() >= before {
		t.Fatalf("no clusters pruned: %d before, %d after 4 idle epochs", before, c.Len())
	}
}

func TestDistillBayesAndFPGates(t *testing.T) {
	// One leaking cluster and one cluster of pure benign shape; the
	// benign corpus contains that same benign shape.
	var leaks, benignLike, corpus []*httpmodel.Packet
	for i := 0; i < 8; i++ {
		leaks = append(leaks, leakPacket("com.app", i))
		benignLike = append(benignLike, benignPacket(i))
	}
	for i := 100; i < 200; i++ {
		corpus = append(corpus, benignPacket(i))
	}
	train, hold := splitBenign(corpus)
	groups := []group{
		{ID: 1, Packets: leaks, Tenants: map[string]int{"com.app": len(leaks)}},
		{ID: 2, Packets: benignLike, Tenants: map[string]int{"com.other": len(benignLike)}},
	}
	// Raising MaxBenignFraction to 1 disables the generator's own
	// token-frequency filter, so the benign-shaped candidate survives to
	// the later gates and each gate can be exercised in isolation.
	opts := signature.Options{MinClusterSize: 2, MaxBenignFraction: 1}

	// Bayes gate alone (no held-out corpus): token material as common in
	// benign as in suspect traffic scores below the threshold.
	_, st := distill(new(tokenMemo), groups, train, nil, nil, opts, 0.01)
	if st.Candidates < 2 {
		t.Fatalf("expected candidates from both clusters, got %d", st.Candidates)
	}
	if st.RejectedBayes == 0 {
		t.Fatalf("the benign-shaped signature slipped past the Bayes gate: %+v", st)
	}

	// FP gate alone (no training corpus, so no Bayes model): the
	// benign-shaped signature matches the held-out corpus and dies.
	_, st = distill(new(tokenMemo), groups, nil, hold, nil, opts, 0.01)
	if st.RejectedFP == 0 {
		t.Fatalf("the benign-shaped signature slipped past the held-out FP gate: %+v", st)
	}

	// Both gates plus the default token-frequency filter: the leak
	// signature survives, carries its provenance, and still detects the
	// leaking packets.
	cands, st := distill(new(tokenMemo), groups, train, hold, nil, signature.Options{MinClusterSize: 2}, 0.01)
	if len(cands) == 0 {
		t.Fatalf("the leak signature was over-filtered: %+v", st)
	}
	for _, c := range cands {
		if _, ok := c.sources[1]; !ok {
			t.Fatalf("candidate lost its source-cluster provenance: %+v", c.sources)
		}
		if c.tenants["com.app"] != len(leaks) {
			t.Fatalf("candidate lost its tenant provenance: %+v", c.tenants)
		}
	}
	sigs := make([]*signature.Signature, len(cands))
	for i, c := range cands {
		sigs[i] = c.sig
	}
	set := assemble(sigs, len(leaks))
	eng := detect.NewEngine(set)
	hits := 0
	for _, p := range leaks {
		if eng.Matches(p) {
			hits++
		}
	}
	if hits < len(leaks)/2 {
		t.Fatalf("accepted signatures detect only %d/%d leak packets", hits, len(leaks))
	}
	for _, p := range hold {
		if eng.Matches(p) {
			t.Fatal("an accepted signature matches held-out benign traffic")
		}
	}
}

func TestServiceEpochPublishesAndDeduplicates(t *testing.T) {
	srv := sigserver.New()
	var published []int64
	svc := NewService(Config{
		Publisher:      serverPublisher{Server: srv},
		MinClusterSize: 2,
		OnPublish:      func(_ string, set *signature.Set) { published = append(published, set.Version) },
	})
	defer svc.Close()

	for i := 0; i < 12; i++ {
		svc.Observe("com.app", leakPacket("com.app", i))
	}
	set, err := svc.RunEpoch(context.Background())
	if err != nil {
		t.Fatalf("epoch: %v", err)
	}
	if set == nil || set.Len() == 0 {
		t.Fatal("epoch published nothing from a 12-packet leak stream")
	}
	if _, v := srv.Current(); v != set.Version || v == 0 {
		t.Fatalf("server at version %d, set says %d", v, set.Version)
	}

	// Same content again: the fingerprint suppresses a second publish.
	for i := 0; i < 12; i++ {
		svc.Observe("com.app", leakPacket("com.app", i))
	}
	again, err := svc.RunEpoch(context.Background())
	if err != nil {
		t.Fatalf("second epoch: %v", err)
	}
	if again != nil {
		t.Fatalf("identical content republished as version %d", again.Version)
	}
	if len(published) != 1 {
		t.Fatalf("OnPublish fired %d times, want 1", len(published))
	}
	if st := svc.Stats(); st.Publishes != 1 || st.Epochs != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestServicePublishLosesRaceAndResyncs(t *testing.T) {
	srv := sigserver.New()
	svc := NewService(Config{
		Publisher:      serverPublisher{Server: srv},
		MinClusterSize: 2,
	})
	defer svc.Close()

	// A competing writer advances the server past anything the service
	// has seen, so the service's stamped version is stale.
	other := &signature.Set{Version: 7}
	if _, err := srv.Publish("", other); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 12; i++ {
		svc.Observe("com.app", leakPacket("com.app", i))
	}
	// First epoch seeds lastVersion from the server (7), so the publish
	// should stamp 8 and succeed.
	set, err := svc.RunEpoch(context.Background())
	if err != nil {
		t.Fatalf("epoch: %v", err)
	}
	if set == nil || set.Version != 8 {
		t.Fatalf("published %+v, want version 8", set)
	}

	// Now lose a race: the competitor jumps ahead between epochs.
	if _, err := srv.Publish("", &signature.Set{Version: 20}); err != nil {
		t.Fatal(err)
	}
	// Change the traffic so the fingerprint differs and a publish is
	// attempted with the stale stamp 9.
	for i := 0; i < 12; i++ {
		svc.Observe("com.other", benignPacket(i))
	}
	_, err = svc.RunEpoch(context.Background())
	if err == nil {
		// The new clusters may legitimately produce no signatures
		// (benign shape, no publish attempt); force the check only when
		// a publish happened.
		if st := svc.Stats(); st.PublishErrors > 0 {
			t.Fatal("publish error counted but RunEpoch returned nil error")
		}
	} else {
		st := svc.Stats()
		if st.PublishErrors == 0 {
			t.Fatalf("stale publish not counted: %+v", st)
		}
		if st.LastVersion != 20 {
			t.Fatalf("service did not resync to the server's version: %+v", st)
		}
	}
	// Either way the server's guard never went backwards.
	if _, v := srv.Current(); v != 20 {
		t.Fatalf("server regressed to version %d", v)
	}
}

func TestTimedEpochLoop(t *testing.T) {
	srv := sigserver.New()
	svc := NewService(Config{
		Publisher:        serverPublisher{Server: srv},
		MinClusterSize:   2,
		GenerateInterval: 20 * time.Millisecond,
		MinNewSamples:    1,
	})
	defer svc.Close()
	for i := 0; i < 12; i++ {
		svc.Observe("com.app", leakPacket("com.app", i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, v := srv.Current(); v > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed loop never published; stats %+v", svc.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// flakyPublisher fails its first n Publish calls, then delegates to an
// in-process server.
type flakyPublisher struct {
	srv      *sigserver.Server
	failures int
	calls    int
}

func (p *flakyPublisher) CurrentVersion(_ context.Context, name string) (int64, error) {
	_, v, _ := p.srv.CurrentNamed(name)
	return v, nil
}

func (p *flakyPublisher) Publish(_ context.Context, name string, set *signature.Set) (int64, error) {
	p.calls++
	if p.calls <= p.failures {
		return 0, fmt.Errorf("simulated outage %d", p.calls)
	}
	return p.srv.Publish(name, set)
}

// TestFailedPublishRetriesWithoutNewSamples pins the outage contract:
// a generated set whose publish fails is cached and republished by a
// later epoch even though no new samples arrived and the clusters that
// produced it may since have been pruned.
func TestFailedPublishRetriesWithoutNewSamples(t *testing.T) {
	srv := sigserver.New()
	pub := &flakyPublisher{srv: srv, failures: 1}
	svc := NewService(Config{
		Publisher:      pub,
		MinClusterSize: 2,
		Cluster:        ClusterConfig{StaleEpochs: 1}, // prune aggressively
	})
	defer svc.Close()

	for i := 0; i < 12; i++ {
		svc.Observe("com.app", leakPacket("com.app", i))
	}
	if _, err := svc.RunEpoch(context.Background()); err == nil {
		t.Fatal("first epoch should surface the publish failure")
	}
	if st := svc.Stats(); st.PublishErrors != 1 {
		t.Fatalf("stats after outage: %+v", st)
	}

	// Age the clusters past StaleEpochs with empty epochs, then retry:
	// the cached set must still go out.
	var set *signature.Set
	var err error
	for i := 0; i < 3 && set == nil; i++ {
		set, err = svc.RunEpoch(context.Background())
		if err != nil {
			t.Fatalf("retry epoch %d: %v", i, err)
		}
	}
	if set == nil || set.Len() == 0 {
		t.Fatalf("cached set never republished; stats %+v", svc.Stats())
	}
	if _, v := srv.Current(); v != set.Version || v == 0 {
		t.Fatalf("server at %d, want %d", v, set.Version)
	}
}

// leakPacketAt is leakPacket with a distinct destination shape, so two
// tenant populations form separable clusters.
func leakPacketAt(host, app string, i int) *httpmodel.Packet {
	return httpmodel.Get(host, "/beacon/track").
		App(app).
		ID(int64(i)).
		Dest(ipaddr.FromOctets(172, 16, 9, 21), 8080).
		Query("slot", fmt.Sprintf("%d", i%5)).
		Query("android_id", "a3f5c4d56d682e54").
		Query("serial", "R58M30WZNBX").
		UserAgent("Dalvik/2.1.0").
		Build()
}

// TestReservoirSlotsRecycleAcrossEpochs is the regression for the
// slot-exhaustion bug: admit() created a private reservoir per tenant key
// and nothing ever removed it, so after MaxTenantReservoirs distinct keys
// had EVER appeared, every later tenant was permanently routed to the
// shared overflow reservoir and Stats.Tenants counted dead tenants
// forever. Slots must recycle at epoch take().
func TestReservoirSlotsRecycleAcrossEpochs(t *testing.T) {
	const cap = 64
	svc := NewService(Config{ReservoirSize: 4, MaxTenantReservoirs: cap})
	defer svc.Close()

	observe := func(prefix string, tenants int) {
		for i := 0; i < tenants; i++ {
			key := fmt.Sprintf("%s-t%d", prefix, i)
			svc.Observe(key, leakPacket(key, i))
		}
		admitQueued(t, svc)
	}

	// Epoch 1: 100 transient tenants — 64 private slots plus overflow.
	observe("epoch1", 100)
	st := svc.Stats()
	if st.Tenants != cap || st.OverflowTenants == 0 {
		t.Fatalf("epoch-1 intake: tenants=%d overflow=%d, want %d and >0", st.Tenants, st.OverflowTenants, cap)
	}
	overflowAfterEpoch1 := st.OverflowTenants
	if _, err := svc.RunEpoch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Tenants != 0 {
		t.Fatalf("epoch take() released %d of %d reservoir slots", cap-st.Tenants, cap)
	}

	// Epoch 2: 50 brand-new tenants. With recycled slots every one gets
	// a private reservoir; with the bug all 50 would land in overflow.
	observe("epoch2", 50)
	st = svc.Stats()
	if st.Tenants != 50 {
		t.Fatalf("epoch-2 tenants = %d, want 50 private reservoirs from recycled slots", st.Tenants)
	}
	if st.OverflowTenants != overflowAfterEpoch1 {
		t.Fatalf("epoch-2 admissions overflowed (%d -> %d) despite free slots",
			overflowAfterEpoch1, st.OverflowTenants)
	}
}

func TestTenantSetsPublishAndIsolate(t *testing.T) {
	srv := sigserver.New()
	published := map[string]int64{}
	svc := NewService(Config{
		Publisher:      serverPublisher{Server: srv},
		TenantSets:     true,
		MinClusterSize: 2,
		OnPublish:      func(name string, set *signature.Set) { published[name] = set.Version },
	})
	defer svc.Close()

	// Two tenants with separable leak populations.
	for i := 0; i < 12; i++ {
		svc.Observe("tenant-a", leakPacket("com.a", i))
		svc.Observe("tenant-b", leakPacketAt("beacon.other-ads.example", "com.b", i))
	}
	global, err := svc.RunEpoch(context.Background())
	if err != nil {
		t.Fatalf("epoch: %v", err)
	}
	if global == nil || global.Len() < 2 {
		t.Fatalf("global set should carry both populations: %+v", global)
	}
	if published[""] == 0 || published["tenant-a"] == 0 || published["tenant-b"] == 0 {
		t.Fatalf("OnPublish deliveries = %v, want global + both tenants", published)
	}

	setA, vA, okA := srv.CurrentNamed("tenant-a")
	setB, vB, okB := srv.CurrentNamed("tenant-b")
	if !okA || !okB || vA == 0 || vB == 0 {
		t.Fatalf("named sets not on the server: a=(%v,%d) b=(%v,%d)", okA, vA, okB, vB)
	}
	if setA.Len() == 0 || setB.Len() == 0 {
		t.Fatalf("empty named sets: a=%d b=%d", setA.Len(), setB.Len())
	}

	// Isolation: each tenant's set fires on its own traffic only.
	engA := detect.NewEngine(setA)
	engB := detect.NewEngine(setB)
	aPkt := leakPacket("com.a", 99)
	bPkt := leakPacketAt("beacon.other-ads.example", "com.b", 99)
	if !engA.Matches(aPkt) {
		t.Fatal("tenant-a set misses tenant-a traffic")
	}
	if engA.Matches(bPkt) {
		t.Fatal("tenant-a set fires on tenant-b traffic")
	}
	if !engB.Matches(bPkt) {
		t.Fatal("tenant-b set misses tenant-b traffic")
	}
	if engB.Matches(aPkt) {
		t.Fatal("tenant-b set fires on tenant-a traffic")
	}

	// Stats track the per-tenant lifecycle.
	st := svc.Stats()
	if st.NamedPublishes < 2 || st.NamedVersions["tenant-a"] != vA || st.Catalog < 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDriftRetirementDropsStaleSignatures pins the aging-out half of the
// lifecycle: when staleness pruning retires every cluster that sourced a
// published signature, the next epoch publishes sets without it — the
// fleet converges off signatures whose populations vanished, instead of
// matching ghosts forever.
func TestDriftRetirementDropsStaleSignatures(t *testing.T) {
	srv := sigserver.New()
	svc := NewService(Config{
		Publisher:      serverPublisher{Server: srv},
		TenantSets:     true,
		MinClusterSize: 2,
		Cluster:        ClusterConfig{StaleEpochs: 1},
	})
	defer svc.Close()

	for i := 0; i < 12; i++ {
		svc.Observe("tenant-a", leakPacket("com.a", i))
	}
	first, err := svc.RunEpoch(context.Background())
	if err != nil || first == nil || first.Len() == 0 {
		t.Fatalf("first epoch: set=%+v err=%v", first, err)
	}
	if _, vA, _ := srv.CurrentNamed("tenant-a"); vA == 0 {
		t.Fatal("tenant-a named set never published")
	}

	// Idle epochs age the population out; the publish that follows must
	// drop the retired signature from both the global and the tenant set.
	var retiredSet *signature.Set
	for i := 0; i < 4 && retiredSet == nil; i++ {
		set, err := svc.RunEpoch(context.Background())
		if err != nil {
			t.Fatalf("idle epoch %d: %v", i, err)
		}
		if set != nil && set.Len() == 0 {
			retiredSet = set
		}
	}
	if retiredSet == nil {
		t.Fatalf("drift retirement never published the shrunken set; stats %+v", svc.Stats())
	}
	if retiredSet.Version <= first.Version {
		t.Fatalf("retirement version %d did not advance past %d", retiredSet.Version, first.Version)
	}
	cur, v := srv.Current()
	if v != retiredSet.Version || cur.Len() != 0 {
		t.Fatalf("server still carries retired signatures: %d sigs at v%d", cur.Len(), v)
	}
	setA, vA, _ := srv.CurrentNamed("tenant-a")
	if setA.Len() != 0 || vA < 2 {
		t.Fatalf("tenant-a named set not retired: %d sigs at v%d", setA.Len(), vA)
	}
	st := svc.Stats()
	if st.RetiredSig == 0 {
		t.Fatalf("no retirement counted: %+v", st)
	}
	if _, tracked := st.NamedVersions["tenant-a"]; tracked {
		t.Fatalf("retired tenant still tracked in %v", st.NamedVersions)
	}

	// A quiet learner after retirement publishes nothing further.
	again, err := svc.RunEpoch(context.Background())
	if err != nil || again != nil {
		t.Fatalf("post-retirement epoch republished: set=%+v err=%v", again, err)
	}
}

// TestPoolReloaderLandsTenantSets closes the in-process loop: learner →
// OnPublish → Pool.ReloadTenant, with the pool default left alone so
// one tenant's learned signatures can never fire on another tenant.
func TestPoolReloaderLandsTenantSets(t *testing.T) {
	pool := engine.NewPool(nil, engine.PoolConfig{Engine: engine.Config{Shards: 1}})
	defer pool.Close()
	svc := NewService(Config{
		TenantSets:     true,
		MinClusterSize: 2,
		OnPublish: func(name string, set *signature.Set) {
			if name != "" {
				pool.ReloadTenant(name, set)
			}
		},
	})
	defer svc.Close()

	for i := 0; i < 12; i++ {
		svc.Observe("tenant-a", leakPacket("com.a", i))
	}
	if _, err := svc.RunEpoch(context.Background()); err != nil {
		t.Fatalf("epoch: %v", err)
	}
	if m := pool.Tenant("tenant-a").MatchPacket(leakPacket("com.a", 99)); len(m) == 0 {
		t.Fatal("tenant-a never received its learned set")
	}
	// The same traffic through another tenant stays clean: the global
	// union was not installed as the pool default.
	if m := pool.Tenant("tenant-b").MatchPacket(leakPacket("com.a", 99)); len(m) != 0 {
		t.Fatal("tenant-a's learned signatures fire on tenant-b")
	}
}

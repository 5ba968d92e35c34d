package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolTenantIsolation(t *testing.T) {
	p := NewPool(nil, PoolConfig{Engine: Config{Shards: 1}})
	defer p.Close()
	p.ReloadTenant("app.alpha", tokenSet(1, "alpha-token"))
	p.ReloadTenant("app.beta", tokenSet(1, "beta-token"))

	// Identical traffic — carrying only the alpha token — into both
	// tenants: a leak for alpha, invisible to beta.
	const n = 200
	for i := 0; i < n; i++ {
		pk := pkt(int64(i), "tracker.example.com", "alpha-token")
		if err := p.Submit("app.alpha", pk); err != nil {
			t.Fatal(err)
		}
		if err := p.Submit("app.beta", pk); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
	alpha, ok := p.TenantMetrics("app.alpha")
	if !ok || alpha.Matched != n {
		t.Fatalf("alpha tenant matched %d of %d (live=%v)", alpha.Matched, n, ok)
	}
	beta, ok := p.TenantMetrics("app.beta")
	if !ok || beta.Matched != 0 {
		t.Fatalf("beta tenant matched %d, want 0 (live=%v)", beta.Matched, ok)
	}
}

func TestPoolLazyCreationAndDefaultReload(t *testing.T) {
	p := NewPool(tokenSet(1, "v1-token"), PoolConfig{Engine: Config{Shards: 1}})
	defer p.Close()
	if got := p.Metrics().Tenants; got != 0 {
		t.Fatalf("fresh pool has %d tenants", got)
	}
	if m := p.Tenant("cohort-7").MatchPacket(pkt(0, "a.example.com", "v1-token")); len(m) == 0 {
		t.Fatal("lazily created tenant did not start on the pool's default set")
	}
	if got := p.Metrics().Tenants; got != 1 {
		t.Fatalf("pool has %d tenants after first use, want 1", got)
	}

	// A pinned tenant survives pool-wide reloads; unpinned ones follow.
	p.ReloadTenant("pinned", tokenSet(1, "pinned-token"))
	p.Reload(tokenSet(2, "v2-token"))
	if m := p.Tenant("cohort-7").MatchPacket(pkt(0, "a.example.com", "v2-token")); len(m) == 0 {
		t.Fatal("unpinned tenant did not follow the pool-wide reload")
	}
	if m := p.Tenant("pinned").MatchPacket(pkt(0, "a.example.com", "pinned-token")); len(m) == 0 {
		t.Fatal("pinned tenant lost its private set on pool-wide reload")
	}
	if m := p.Tenant("fresh").MatchPacket(pkt(0, "a.example.com", "v2-token")); len(m) == 0 {
		t.Fatal("tenant created after Reload did not start on the new default")
	}
}

func TestPoolShardBudget(t *testing.T) {
	p := NewPool(nil, PoolConfig{
		Engine:      Config{Shards: 2},
		ShardBudget: 4,
	})
	defer p.Close()
	for _, key := range []string{"t1", "t2", "t3"} {
		p.Tenant(key)
	}
	snap := p.Metrics()
	if snap.PerTenant["t1"].Shards != 2 || snap.PerTenant["t2"].Shards != 2 {
		t.Fatalf("first two tenants got %d and %d shards, want 2 each",
			snap.PerTenant["t1"].Shards, snap.PerTenant["t2"].Shards)
	}
	// The budget is spent: the third tenant degrades to one shard rather
	// than being refused.
	if snap.PerTenant["t3"].Shards != 1 {
		t.Fatalf("over-budget tenant got %d shards, want 1", snap.PerTenant["t3"].Shards)
	}

	// Eviction returns shards to the budget: dropping t1 (2 shards) and
	// t3 (1 degraded shard) leaves t2 alone, freeing 2 of the 4.
	p.evict("t1")
	p.evict("t3")
	p.Tenant("t4")
	snap = p.Metrics()
	if snap.PerTenant["t4"].Shards != 2 {
		t.Fatalf("tenant after eviction got %d shards, want 2 from the returned budget",
			snap.PerTenant["t4"].Shards)
	}
	if snap.ShardsInUse != 4 {
		t.Fatalf("shards in use = %d, want 4 (t2 + t4)", snap.ShardsInUse)
	}
}

func TestPoolIdleEviction(t *testing.T) {
	p := NewPool(tokenSet(1, "x-token"), PoolConfig{
		Engine:    Config{Shards: 1},
		IdleAfter: 50 * time.Millisecond,
	})
	defer p.Close()
	const n = 100
	for i := 0; i < n; i++ {
		if err := p.Submit("ephemeral", pkt(int64(i), "a.example.com", "x-token")); err != nil {
			t.Fatal(err)
		}
	}
	// Wait on the eviction counter, not the tenant map: the map entry
	// disappears before the drain completes, so map emptiness races the
	// final counters. Evict counts the eviction only after folding the
	// drained tenant into the aggregate.
	deadline := time.After(5 * time.Second)
	for p.Metrics().Evicted == 0 {
		select {
		case <-deadline:
			t.Fatal("idle tenant never evicted")
		case <-time.After(5 * time.Millisecond):
		}
	}
	// The retired tenant's history survives in the aggregate.
	snap := p.Metrics()
	if snap.Aggregate.Processed != n || snap.Aggregate.Matched != n {
		t.Fatalf("aggregate lost evicted history: %+v", snap.Aggregate)
	}
	if snap.Evicted != 1 || snap.Created != 1 {
		t.Fatalf("lifecycle counters: created=%d evicted=%d", snap.Created, snap.Evicted)
	}
}

// TestPoolEvictionRacesIngest is the satellite stress: an aggressive
// janitor evicting while producers hammer Submit must never lose a
// packet — evicted tenants drain, and racing Submits recreate them.
func TestPoolEvictionRacesIngest(t *testing.T) {
	p := NewPool(tokenSet(1, "x-token"), PoolConfig{
		Engine:    Config{Shards: 1},
		IdleAfter: time.Millisecond,
	})
	const (
		producers  = 4
		perFeeder  = 500
		tenantKeys = 3
	)
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perFeeder; i++ {
				key := fmt.Sprintf("pop-%d", i%tenantKeys)
				if err := p.Submit(key, pkt(int64(i), "a.example.com", "x-token")); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if i%100 == 0 {
					time.Sleep(2 * time.Millisecond) // let idleness accrue
				}
			}
		}(g)
	}
	wg.Wait()
	p.Close()
	snap := p.Metrics()
	const want = producers * perFeeder
	if snap.Aggregate.Ingested != want || snap.Aggregate.Processed != want {
		t.Fatalf("lost packets across evictions: ingested=%d processed=%d, want %d",
			snap.Aggregate.Ingested, snap.Aggregate.Processed, want)
	}
	if snap.Evicted == 0 {
		t.Log("warning: no evictions fired during the race window")
	}
}

func TestPoolMaxTenantsEvictsLRU(t *testing.T) {
	p := NewPool(nil, PoolConfig{
		Engine:     Config{Shards: 1},
		MaxTenants: 2,
	})
	defer p.Close()
	p.Tenant("old")
	time.Sleep(2 * time.Millisecond)
	p.Tenant("mid")
	time.Sleep(2 * time.Millisecond)
	p.Tenant("old") // refresh: "mid" is now least recently active
	p.Tenant("new") // overflow evicts "mid"
	keys := map[string]bool{}
	for k := range p.Metrics().PerTenant {
		keys[k] = true
	}
	if !keys["old"] || !keys["new"] || keys["mid"] {
		t.Fatalf("tenants after LRU overflow = %v, want {old, new}", keys)
	}
	if got := p.Metrics().Evicted; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
}

// TestPoolAggregateSurvivesLRUEviction pins the accounting contract the
// ops plane scrapes: a tenant recycled by the MaxTenants LRU cap drops
// out of TenantMetrics and the per-tenant snapshot, but its lifetime
// counters fold into the eviction-surviving aggregate — so fleet-wide
// totals never regress when the tenant table churns.
func TestPoolAggregateSurvivesLRUEviction(t *testing.T) {
	p := NewPool(tokenSet(1, "x-token"), PoolConfig{
		Engine:     Config{Shards: 1},
		MaxTenants: 2,
	})
	defer p.Close()
	const n = 50
	feed := func(key string) {
		for i := 0; i < n; i++ {
			if err := p.Submit(key, pkt(int64(i), "a.example.com", "x-token")); err != nil {
				t.Fatal(err)
			}
		}
		p.Flush()
		time.Sleep(2 * time.Millisecond) // make LRU recency unambiguous
	}
	feed("t1")
	feed("t2")
	feed("t3") // creating t3 overflows the cap and recycles t1

	if _, ok := p.TenantMetrics("t1"); ok {
		t.Fatal("LRU-evicted tenant still answers TenantMetrics")
	}
	if snap, ok := p.TenantMetrics("t3"); !ok || snap.Processed != n || snap.Matched != n {
		t.Fatalf("live tenant: ok=%v processed=%d matched=%d, want %d each", ok, snap.Processed, snap.Matched, n)
	}
	snap := p.Metrics()
	if snap.Aggregate.Processed != 3*n || snap.Aggregate.Matched != 3*n {
		t.Fatalf("aggregate lost LRU-evicted history: processed=%d matched=%d, want %d each",
			snap.Aggregate.Processed, snap.Aggregate.Matched, 3*n)
	}
	if _, live := snap.PerTenant["t1"]; live {
		t.Fatal("evicted tenant still in the per-tenant snapshot")
	}
	if snap.Evicted != 1 || snap.Created != 3 {
		t.Fatalf("lifecycle counters: created=%d evicted=%d, want 1 and 3", snap.Evicted, snap.Created)
	}
}

func TestPoolClose(t *testing.T) {
	p := NewPool(nil, PoolConfig{Engine: Config{Shards: 1}})
	p.Tenant("x")
	p.Close()
	p.Close() // idempotent
	if err := p.Submit("x", pkt(0, "a.example.com", "q=1")); err != errClosed {
		t.Fatalf("Submit after Close = %v, want errClosed", err)
	}
	if p.Tenant("x") != nil {
		t.Fatal("Tenant returned an engine after Close")
	}
}

// TestPoolTenantSink checks the per-tenant sink hook attaches one sink
// to each tenant, seeing only that tenant's verdicts.
func TestPoolTenantSink(t *testing.T) {
	sinks := map[string]*CountSink{}
	var mu sync.Mutex
	p := NewPool(tokenSet(1, "x-token"), PoolConfig{
		Engine:      Config{Shards: 1},
		ShardBudget: 8,
		TenantSink: func(key string) Sink {
			sink := NewCountSink()
			mu.Lock()
			sinks[key] = sink
			mu.Unlock()
			return sink
		},
	})
	defer p.Close()
	for i := 0; i < 50; i++ {
		if err := p.Submit("a", pkt(int64(i), "h.example.com", "x-token")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		if err := p.Submit("b", pkt(int64(i), "h.example.com", "zone=1")); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
	aPackets, aLeaks := sinks["a"].Totals()
	bPackets, bLeaks := sinks["b"].Totals()
	if aPackets != 50 || aLeaks != 50 {
		t.Fatalf("tenant a sink = (%d, %d), want (50, 50)", aPackets, aLeaks)
	}
	if bPackets != 30 || bLeaks != 0 {
		t.Fatalf("tenant b sink = (%d, %d), want (30, 0)", bPackets, bLeaks)
	}
}

// TestPoolReloadPinnedRace hammers the pin-vs-pool-wide-reload ordering:
// whatever the interleaving, a tenant pinned by ReloadTenant must end up
// on its private set, never silently reverted to the pool default.
func TestPoolReloadPinnedRace(t *testing.T) {
	for i := 0; i < 50; i++ {
		p := NewPool(tokenSet(1, "default-token"), PoolConfig{Engine: Config{Shards: 1}})
		p.Tenant("t")
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); p.Reload(tokenSet(2, "default-token")) }()
		go func() { defer wg.Done(); p.ReloadTenant("t", tokenSet(9, "pinned-token")) }()
		wg.Wait()
		if m := p.Tenant("t").MatchPacket(pkt(0, "h.example.com", "pinned-token")); len(m) == 0 {
			t.Fatalf("iteration %d: pinned set lost to a concurrent pool-wide reload", i)
		}
		p.Close()
	}
}

// TestPoolEvictDrainsSinkBeforeRetiring pins the contract the siggen
// miss sink depends on: when a tenant is evicted, every packet it
// accepted must flow through its bound sink before Evict returns —
// otherwise the learner would silently lose the tail of an evicted
// population's sample.
func TestPoolEvictDrainsSinkBeforeRetiring(t *testing.T) {
	const n = 400
	var seen atomic.Uint64
	sink := CallbackSink(func(v Verdict) {
		if v.Seq%64 == 0 {
			time.Sleep(200 * time.Microsecond) // keep the queue non-empty
		}
		seen.Add(1)
	})
	p := NewPool(nil, PoolConfig{Engine: Config{Shards: 2, Sink: sink}})
	defer p.Close()
	for i := 0; i < n; i++ {
		if err := p.Submit("victim", pkt(int64(i), "host.example.com", "zone=1")); err != nil {
			t.Fatal(err)
		}
	}
	if !p.evict("victim") {
		t.Fatal("tenant missing")
	}
	if got := seen.Load(); got != n {
		t.Fatalf("sink saw %d of %d packets when Evict returned", got, n)
	}
}

// TestPoolEvictRacesSinkFlush hammers eviction against concurrent
// submitters: whatever interleaving happens, once the pool is closed the
// sink must have seen every accepted packet exactly once.
func TestPoolEvictRacesSinkFlush(t *testing.T) {
	var seen atomic.Uint64
	sink := CallbackSink(func(Verdict) { seen.Add(1) })
	p := NewPool(nil, PoolConfig{Engine: Config{Shards: 1, Sink: sink}})

	const (
		workers    = 4
		perWorker  = 300
		evictEvery = 50 * time.Microsecond
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	evictorDone := make(chan struct{})
	go func() { // the evictor
		defer close(evictorDone)
		for {
			select {
			case <-stop:
				return
			default:
				p.evict("victim")
				time.Sleep(evictEvery)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := p.Submit("victim", pkt(int64(w*perWorker+i), "host.example.com", "zone=1")); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-evictorDone
	p.Close()
	if got := seen.Load(); got != workers*perWorker {
		t.Fatalf("sink saw %d packets, want %d (lost across eviction)", got, workers*perWorker)
	}
}

// TestPoolShardsInUseCountsWorkers pins the books: every grant is
// charged, the one-shard grants of tenants admitted after the budget is
// spent included, so ShardsInUse is always the worker count the live
// tenants run — through exhaustion, eviction and recycling.
func TestPoolShardsInUseCountsWorkers(t *testing.T) {
	p := NewPool(nil, PoolConfig{
		Engine:      Config{Shards: 2},
		ShardBudget: 4,
	})
	defer p.Close()
	check := func(stage string, want int) {
		t.Helper()
		snap := p.Metrics()
		sum := 0
		for _, m := range snap.PerTenant {
			sum += m.Shards
		}
		if snap.ShardsInUse != sum || sum != want {
			t.Fatalf("%s: ShardsInUse=%d, tenants run %d shards, want %d", stage, snap.ShardsInUse, sum, want)
		}
	}

	// t1+t2 spend the 4 shards; t3..t5 still run, one shard each, and
	// the books show the pressure: 7 shards in use against a budget of 4.
	for _, key := range []string{"t1", "t2", "t3", "t4", "t5"} {
		p.Tenant(key)
	}
	check("at exhaustion", 7)
	for _, key := range []string{"t3", "t4", "t5"} {
		if got := p.Metrics().PerTenant[key].Shards; got != 1 {
			t.Fatalf("over-budget tenant %s got %d shards, want 1", key, got)
		}
	}

	// Evicting returns exactly the evicted tenant's shards; tenants that
	// kept one shard are not resized.
	p.evict("t1")
	check("after evicting a 2-shard tenant", 5)
	p.evict("t3")
	check("after evicting a 1-shard tenant", 4)

	// Recycling: the budget is still spent (4 of 4), so a new tenant runs
	// one shard; once evictions bring use under budget, it gets what is left.
	p.Tenant("t6")
	check("recycled under pressure", 5)
	p.evict("t2")
	p.evict("t4")
	p.evict("t5")
	check("after draining to one tenant", 1)
	p.Tenant("t7")
	if got := p.Metrics().PerTenant["t7"].Shards; got != 2 {
		t.Fatalf("tenant created with 3 shards free got %d, want the 2-shard template", got)
	}
	check("after recovery", 3)
}

// TestPoolPinSurvivesEviction pins the durability contract ReloadTenant
// gained: a pin is recorded without eagerly creating an engine, and a
// tenant recreated after eviction starts on its pinned set — never
// silently back on the pool default (which may hold other populations'
// signatures).
func TestPoolPinSurvivesEviction(t *testing.T) {
	p := NewPool(tokenSet(1, "default-token"), PoolConfig{Engine: Config{Shards: 1}})
	defer p.Close()

	p.ReloadTenant("pinned", tokenSet(5, "pinned-token"))
	if got := p.Metrics().Tenants; got != 0 {
		t.Fatalf("ReloadTenant eagerly created %d engines", got)
	}
	if m := p.Tenant("pinned").MatchPacket(pkt(0, "h.example.com", "pinned-token")); len(m) == 0 {
		t.Fatal("lazily created tenant did not start on its pinned set")
	}

	if !p.evict("pinned") {
		t.Fatal("tenant missing")
	}
	if m := p.Tenant("pinned").MatchPacket(pkt(0, "h.example.com", "pinned-token")); len(m) == 0 {
		t.Fatal("eviction lost the pin: recreated tenant misses its pinned set")
	}
	if m := p.Tenant("pinned").MatchPacket(pkt(0, "h.example.com", "default-token")); len(m) != 0 {
		t.Fatal("recreated tenant fell back to the pool default set")
	}

	// Pool-wide reloads still skip the recreated pinned tenant.
	p.Reload(tokenSet(9, "default-token"))
	if m := p.Tenant("pinned").MatchPacket(pkt(0, "h.example.com", "pinned-token")); len(m) == 0 {
		t.Fatal("pool-wide reload overwrote a recreated tenant's pin")
	}
}

// TestPoolTenantBornDuringReload is the regression for a tenant stranded
// on the previous default: its engine is built outside the pool lock, and
// a Pool.Reload landing in that window has already listed its targets.
// TenantSink runs exactly inside the window, so the hook publishes set B
// while the tenant is being built from set A; the tenant must come out
// on B.
func TestPoolTenantBornDuringReload(t *testing.T) {
	b := tokenSet(2, "b-token")
	var p *Pool
	var once sync.Once
	p = NewPool(tokenSet(1, "a-token"), PoolConfig{
		Engine: Config{Shards: 1},
		TenantSink: func(key string) Sink {
			once.Do(func() { p.Reload(b) })
			return nil
		},
	})
	defer p.Close()
	v := p.Tenant("late").Vet(pkt(0, "h.example.com", "b-token"))
	if v.Version != 2 || !v.Leak() {
		t.Fatalf("tenant created during Reload(B) answers version %d leak=%v, want B's: version 2, leak", v.Version, v.Leak())
	}
}

// TestPoolConcurrentReloadsConverge races two pool-wide reloads: whichever
// wins, every unpinned tenant must end on the set a tenant created
// afterwards starts on — per-tenant reload tickets alone order the two
// calls tenant by tenant, not across the pool.
func TestPoolConcurrentReloadsConverge(t *testing.T) {
	keys := []string{"t0", "t1", "t2", "t3", "t4", "t5"}
	for i := 0; i < 50; i++ {
		p := NewPool(tokenSet(1, "default-token"), PoolConfig{Engine: Config{Shards: 1}})
		for _, k := range keys {
			p.Tenant(k)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); p.Reload(tokenSet(2, "a-token")) }()
		go func() { defer wg.Done(); p.Reload(tokenSet(3, "b-token")) }()
		wg.Wait()
		want := p.Tenant("born-after").Version()
		for _, k := range keys {
			if got := p.Tenant(k).Version(); got != want {
				t.Fatalf("iteration %d: tenant %s is on version %d, new tenants start on %d", i, k, got, want)
			}
		}
		p.Close()
	}
}

// leakstream_pool demonstrates the multi-tenant streaming layer end to
// end on localhost:
//
//  1. a signature server publishes two signature sets in sequence — one
//     learned for the "alpha" app population, one for "beta" — and a
//     client fetches each published version,
//  2. an engine pool pins each set to its population's tenant, so the two
//     populations are vetted by independent engines under one shard
//     budget,
//  3. both populations' traffic streams through the pool concurrently:
//     alpha's identifier trips only alpha's tenant, beta's only beta's —
//     the isolation the paper's per-module signatures aim at, at the
//     engine level.
//
// The example exits non-zero if any verdict crosses tenants.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"leaksig/internal/engine"
	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
)

// population fabricates one app population: its tenant key, the device
// identifier its packets leak, and a signature set trained on it (here a
// literal conjunction signature, standing in for the clustered pipeline).
type population struct {
	tenant string
	ident  string
	sigs   *signature.Set
}

func main() {
	log.SetFlags(0)

	alpha := &population{
		tenant: "com.example.alpha",
		ident:  "udid=f3a9c1d2e88b41aa",
		sigs: &signature.Set{Signatures: []*signature.Signature{
			{ID: 100, Tokens: []string{"udid=f3a9c1d2e88b41aa"}, ClusterSize: 3},
		}},
	}
	beta := &population{
		tenant: "com.example.beta",
		ident:  "imei=353918051234563",
		sigs: &signature.Set{Signatures: []*signature.Signature{
			{ID: 200, Tokens: []string{"imei=353918051234563"}, ClusterSize: 3},
		}},
	}

	// --- Publish both sets through a signature server. Each Publish bumps
	// the version; the client fetches each one as it lands, exactly as a
	// long-poll watcher would. ---
	srv := sigserver.New()
	sigHTTP := httptest.NewServer(srv.Handler())
	defer sigHTTP.Close()
	client := sigserver.NewClient(sigHTTP.URL, nil)
	fmt.Printf("[sigserver] at %s\n", sigHTTP.URL)

	pool := engine.NewPool(nil, engine.PoolConfig{
		Engine:      engine.Config{Shards: 1},
		ShardBudget: 2, // one worker per population
	})
	defer pool.Close()

	for _, pop := range []*population{alpha, beta} {
		version, err := srv.Publish("", pop.sigs)
		if err != nil {
			log.Fatalf("publishing signatures: %v", err)
		}
		set, _, err := client.Fetch(context.Background())
		if err != nil {
			log.Fatalf("fetching signatures: %v", err)
		}
		pool.ReloadTenant(pop.tenant, set)
		fmt.Printf("[sigserver] version %d published and pinned to tenant %s\n",
			version, pop.tenant)
	}

	// --- Stream both populations' traffic through the pool. Every third
	// packet of a population leaks its own identifier; everything else is
	// benign. ---
	const perTenant = 3000
	send := func(pop *population) {
		for i := 0; i < perTenant; i++ {
			payload := fmt.Sprintf("zone=%d", i)
			if i%3 == 0 {
				payload = pop.ident
			}
			pkt := &httpmodel.Packet{
				ID:     int64(i),
				App:    pop.tenant,
				Host:   "ads.tracker.example",
				Method: "GET",
				Path:   "/track?" + payload,
				Proto:  "HTTP/1.1",
			}
			if err := pool.Submit(pop.tenant, pkt); err != nil {
				log.Fatalf("submit: %v", err)
			}
		}
	}
	send(alpha)
	send(beta)
	// Cross traffic: alpha's identifier inside beta's population must NOT
	// trip beta's tenant — beta's signatures do not know alpha's device.
	for i := 0; i < 500; i++ {
		pkt := &httpmodel.Packet{
			ID:     int64(i),
			App:    beta.tenant,
			Host:   "ads.tracker.example",
			Method: "GET",
			Path:   "/track?" + alpha.ident,
			Proto:  "HTTP/1.1",
		}
		if err := pool.Submit(beta.tenant, pkt); err != nil {
			log.Fatalf("submit: %v", err)
		}
	}
	pool.Flush()

	// --- Assert isolation. ---
	const wantLeaks = perTenant / 3
	check := func(pop *population, wantMatched uint64) {
		m, ok := pool.TenantMetrics(pop.tenant)
		if !ok {
			log.Fatalf("tenant %s vanished", pop.tenant)
		}
		fmt.Printf("[pool] %-18s processed=%d leaks=%d (version %d)\n",
			pop.tenant, m.Processed, m.Matched, m.Version)
		if m.Matched != wantMatched {
			log.Fatalf("tenant %s matched %d packets, want %d — tenant isolation broken",
				pop.tenant, m.Matched, wantMatched)
		}
	}
	check(alpha, wantLeaks)
	// Beta saw its own 1000 leaks plus 500 alpha-identifier packets that
	// must stay invisible to its signature set.
	check(beta, wantLeaks)

	snap := pool.Metrics()
	fmt.Printf("[pool] aggregate: tenants=%d processed=%d matched=%d shards=%d/%d\n",
		snap.Tenants, snap.Aggregate.Processed, snap.Aggregate.Matched,
		snap.ShardsInUse, snap.ShardBudget)
	fmt.Println("ok: verdicts stayed inside their tenants")
}

// Command leakstream is the streaming detection daemon: it wires a
// signature server to the sharded matching engine and turns packet
// streams into verdict streams without ever restarting.
//
// Packets enter as NDJSON (the capture JSONL schema, one packet per
// line) on stdin and/or over HTTP; verdicts leave as NDJSON on stdout.
// With -server the daemon watches the signature server — long-polling
// its /wait endpoint, falling back to -poll interval polling — and hot
// reloads the engine on every publish, so new signatures take effect
// mid-stream with zero dropped packets.
//
// With -pool the daemon becomes multi-tenant: packets are routed to
// per-tenant engines (created lazily, evicted when idle, sharing the
// -shard-budget) keyed by the X-Leaksig-Tenant header, the ?tenant=
// query parameter, or each packet's app/host field per -tenant-by.
// Verdict lines then carry a "tenant" field and /stats aggregates
// across tenants.
//
// With -learn the daemon closes the generation loop: every packet the
// live signature set does not match is sampled into an embedded siggen
// learner, which periodically clusters the misses, distills candidate
// signatures, and auto-publishes accepted sets back to -server — the
// very server this daemon watches, so its own engine (and every other
// watcher) hot-reloads what it just learned. In pipe mode a final learn
// epoch runs at stdin EOF before exit.
//
// With -learn-tenants the learner additionally distills one named set
// per tenant (keyed by -tenant-by, or by the pool tenant key with
// -pool) and publishes each to -server under /sets/{tenant}/ with its
// own version sequence. In pool mode the daemon watches the server's
// whole set catalog: the default set reloads unpinned tenants, and each
// named set pins its tenant via ReloadTenant — so tenant A's learned
// signatures fire only on tenant A's traffic, the per-population
// isolation of the paper's per-module signatures. Signatures whose
// source clusters go stale are dropped from the next published versions
// (drift retirement), and the watchers converge off them automatically.
//
// Usage:
//
//	leakstream -server http://127.0.0.1:8700 < capture.jsonl > verdicts.jsonl
//	leakstream -sigs signatures.json -listen :8900
//	leakstream -sigs signatures.json -listen :8900 -pool -tenant-by app -idle 5m
//	leakstream -server http://127.0.0.1:8700 -learn < capture.jsonl > verdicts.jsonl
//	leakstream -server http://127.0.0.1:8700 -pool -learn -learn-tenants < capture.jsonl
//
// HTTP endpoints (with -listen):
//
//	POST /ingest — NDJSON packets in, queued for async matching;
//	               responds {"accepted":N,"rejected":M}
//	POST /match  — NDJSON packets in, NDJSON verdicts out (synchronous)
//	GET  /stats  — engine metrics snapshot as JSON; with -pool, the
//	               pool-wide aggregate, or one tenant via ?tenant=
//	GET  /metrics— Prometheus text exposition for the whole daemon
//	GET  /healthz— liveness
//	GET  /readyz — readiness: 503 until the first signature set is live
//
// The ops plane rides along on every posture: -tenant-rate imposes a
// per-tenant token-bucket intake limit ahead of the engines (policy per
// -rate-policy, drops surfaced as leaksig_intake_* series), -events-url
// ships leak verdicts, reloads, and publishes as batched NDJSON events
// without ever blocking intake, and -debug-addr opens a private
// listener with /metrics and /debug/pprof for operators.
//
// Robustness flags: -sig-cache persists every watch delivery as a
// last-known-good file, and a boot against an unreachable -server
// serves the cached sets immediately — /readyz answers 200
// "ready-degraded" and the leaksig_degraded gauge holds 1 until the
// server answers again. -checkpoint (with -learn) makes the embedded
// learner crash-safe. -faults (or LEAKSIG_FAULTS) injects deterministic
// chaos into outbound HTTP. SIGTERM drains the intake listener and
// engine rings, runs a final learn epoch, checkpoints, and flushes the
// event shipper before exit.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"leaksig/internal/capture"
	"leaksig/internal/durable"
	"leaksig/internal/engine"
	"leaksig/internal/faultinject"
	"leaksig/internal/httpmodel"
	"leaksig/internal/obs"
	"leaksig/internal/obs/trace"
	"leaksig/internal/resilience"
	"leaksig/internal/siggen"
	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("leakstream: ")
	var (
		server   = flag.String("server", "", "signature server base URL (hot reload via long poll)")
		sigsIn   = flag.String("sigs", "", "signature set file (static alternative to -server)")
		sigCache = flag.String("sig-cache", "", "last-known-good signature cache file: every watch delivery is persisted, and a boot against an unreachable -server serves the cached sets in degraded mode instead of refusing traffic")
		listen   = flag.String("listen", "", "HTTP ingest address (empty: stdin only)")
		shards   = flag.Int("shards", 0, "worker shards per engine (0: GOMAXPROCS)")
		batch    = flag.Int("batch", 0, "initial packets batched per dispatch (0: default; adapts between min/max)")
		queue    = flag.Int("queue", 0, "per-shard queue depth in packets (0: default)")
		poll     = flag.Duration("poll", 10*time.Second, "fallback poll interval with -server")
		statsInt = flag.Duration("stats", 0, "metrics reporting interval on stderr (0: off)")
		affinity = flag.String("affinity", "host", "shard affinity: host | none")

		pool        = flag.Bool("pool", false, "multi-tenant mode: one engine per tenant population")
		tenantBy    = flag.String("tenant-by", "app", "packet field keying tenants with -pool: app | host")
		idle        = flag.Duration("idle", 0, "evict tenants idle this long with -pool (0: never)")
		shardBudget = flag.Int("shard-budget", 0, "total shards across tenants with -pool (0: GOMAXPROCS)")
		// Tenant keys come from request headers and packet fields —
		// attacker-controlled in an exposed deployment — so the cap
		// defaults bounded: past it the least-recently-active tenant is
		// recycled rather than goroutines growing without limit.
		maxTenants = flag.Int("max-tenants", 1024, "live tenant cap with -pool, LRU-evicted past it (0: unlimited)")

		learn           = flag.Bool("learn", false, "sample unmatched flows into an online signature generator publishing back to -server")
		learnInterval   = flag.Duration("learn-interval", 30*time.Second, "generation epoch cadence with -learn")
		learnBenign     = flag.String("learn-benign", "", "benign capture (JSONL) for the -learn Bayes and FP gates")
		learnMinCluster = flag.Int("learn-min-cluster", 3, "cluster size a -learn signature needs")
		learnToken      = flag.String("learn-token", "", "bearer token for the -learn publish endpoint")
		learnTenants    = flag.Bool("learn-tenants", false, "with -learn: publish one named set per tenant (keyed by -tenant-by) alongside the global set")
		checkpoint      = flag.String("checkpoint", "", "with -learn: learner checkpoint file, restored on start and rewritten each epoch")
		faults          = flag.String("faults", "", `chaos injection spec for outbound HTTP, e.g. "seed=7,reset=0.1,latency_p=0.1,latency=20ms" (empty: read LEAKSIG_FAULTS)`)

		tenantRate  = flag.Float64("tenant-rate", 0, "per-tenant sustained intake limit in packets/sec (0: account only, never limit)")
		tenantBurst = flag.Float64("tenant-burst", 0, "per-tenant intake burst depth (0: one second of -tenant-rate)")
		ratePolicy  = flag.String("rate-policy", "drop", "over-limit intake policy: drop (shed silently, counted) | reject (error the line)")
		eventsURL   = flag.String("events-url", "", "ship structured events as batched NDJSON POSTs to this endpoint")
		eventsToken = flag.String("events-token", "", "bearer token for -events-url uploads")
		debugAddr   = flag.String("debug-addr", "", "private ops listener: /metrics, /healthz, /debug/flight, /debug/pprof")

		traceSample = flag.Int("trace-sample", 0, "head-sample one packet in N through the pipeline tracer (0: off; incoming trace IDs are always honored)")
		p99Breach   = flag.Duration("p99-breach", 0, "flight-dump trigger when engine p99 latency exceeds this (0: off)")
	)
	flag.Parse()

	var aff engine.Affinity
	switch *affinity {
	case "host":
		aff = engine.AffinityHost
	case "none":
		aff = engine.AffinityNone
	default:
		log.Fatalf("unknown affinity %q (want host or none)", *affinity)
	}
	if *tenantBy != "app" && *tenantBy != "host" {
		log.Fatalf("unknown -tenant-by %q (want app or host)", *tenantBy)
	}
	if *ratePolicy != "drop" && *ratePolicy != "reject" {
		log.Fatalf("unknown -rate-policy %q (want drop or reject)", *ratePolicy)
	}

	// The ops plane: a metrics registry every endpoint scrapes from, an
	// always-on intake limiter (pass-through below any -tenant-rate, so
	// per-tenant intake accounting exists even without enforcement), an
	// optional event shipper, and a readiness latch that trips when the
	// first signature set is live.
	reg := obs.NewRegistry()
	reg.Register(obs.BuildInfoCollector())
	inj, err := faultinject.FromFlag(*faults)
	if err != nil {
		log.Fatal(err)
	}
	if inj != nil {
		log.Printf("chaos: %s", inj)
		reg.Register(obs.FaultCollector(inj))
	}
	limiter := obs.NewRateLimiter(obs.RateLimiterConfig{Rate: *tenantRate, Burst: *tenantBurst})
	reg.Register(limiter)
	var shipper *obs.Shipper
	if *eventsURL != "" {
		shipper = obs.NewShipper(obs.ShipperConfig{
			URL: *eventsURL, Token: *eventsToken, Node: "leakstream",
			HTTPClient: inj.Client(nil),
		})
		defer shipper.Close()
		reg.Register(shipper)
	}
	// The trace plane: a head-sampling tracer (always constructed — at
	// sample 0 it starts nothing but still adopts upstream trace IDs) and
	// an always-on flight recorder the engine feeds. Trigger conditions
	// ship as events when a shipper is wired.
	tracer := trace.NewTracer(*traceSample)
	flight := trace.NewFlight(engine.Config{Shards: *shards}.ShardCount(), 0)
	reg.Register(obs.TracerCollector(tracer))
	reg.Register(obs.FlightCollector(flight))
	if shipper != nil {
		flight.SetTrigger(func(reason string, ev trace.FlightEvent) {
			st := flight.Stats()
			shipper.Ship(obs.Event{
				Type:  "flight",
				Trace: ev.Trace,
				Detail: fmt.Sprintf("reason=%s kind=%s shard=%d value=%d held=%d recorded=%d",
					reason, ev.Kind, ev.Shard, ev.Value, st.Held, st.Recorded),
			})
		})
	}

	// ready latches once any signature set is live; degraded is raised
	// while the live sets came from the -sig-cache fallback rather than
	// the server, and clears on the first genuine watch delivery.
	var ready, degraded atomic.Bool
	reg.Register(obs.CollectorFunc(func(m *obs.MetricWriter) {
		var v float64
		if degraded.Load() {
			v = 1
		}
		m.Gauge("leaksig_degraded", "1 while serving cached signatures because the signature server is unreachable.", v)
	}))
	ops := &opsState{
		limiter:  limiter,
		keyFn:    tenantKeyFn(*tenantBy),
		reject:   *ratePolicy == "reject",
		reg:      reg,
		ready:    &ready,
		degraded: &degraded,
		tracer:   tracer,
		flight:   flight,
	}

	set := &signature.Set{}
	if *sigsIn != "" {
		f, err := os.Open(*sigsIn)
		if err != nil {
			log.Fatalf("opening signatures: %v", err)
		}
		set, err = signature.ReadJSON(f)
		f.Close()
		if err != nil {
			log.Fatalf("reading signatures: %v", err)
		}
	}

	out := newVerdictWriter(os.Stdout)
	cfg := engine.Config{
		Shards:     *shards,
		QueueDepth: *queue,
		BatchSize:  *batch,
		Affinity:   aff,
		Flight:     flight,
	}

	// With -learn, an embedded siggen service samples every miss and
	// auto-publishes generated sets back into the watched server: the
	// closed detect → cluster → generate → publish → hot-reload loop in
	// one process.
	var svc *siggen.Service
	if *learn {
		if *server == "" {
			log.Fatal("-learn requires -server (generated sets publish back to it)")
		}
		var benign []*httpmodel.Packet
		if *learnBenign != "" {
			bset, err := capture.LoadJSONL(*learnBenign)
			if err != nil {
				log.Fatalf("loading -learn-benign capture: %v", err)
			}
			benign = bset.Packets
		}
		pubClient := sigserver.NewClient(*server, inj.Client(nil))
		pubClient.SetToken(*learnToken)
		pubBreaker := resilience.NewBreaker(resilience.BreakerConfig{})
		pubClient.SetBreaker(pubBreaker)
		reg.Register(obs.BreakerCollector("publish", pubBreaker))
		lcfg := siggen.Config{
			Publisher:        siggen.NewHTTPPublisherFrom(pubClient),
			CheckpointPath:   *checkpoint,
			Benign:           benign,
			MinClusterSize:   *learnMinCluster,
			GenerateInterval: *learnInterval,
			TenantSets:       *learnTenants,
			Tracer:           tracer,
			OnPublish: func(set *signature.Set) {
				log.Printf("learn: published version %d (%d signatures)", set.Version, set.Len())
				if shipper != nil {
					shipper.Ship(obs.Event{Type: "publish", Version: set.Version, Trace: set.FirstTrace(), Detail: fmt.Sprintf("%d signatures", set.Len())})
				}
			},
		}
		if *learnTenants {
			lcfg.OnPublishNamed = func(name string, set *signature.Set) {
				if name != "" {
					log.Printf("learn: published set %q version %d (%d signatures)", name, set.Version, set.Len())
					if shipper != nil {
						shipper.Ship(obs.Event{Type: "publish", Set: name, Version: set.Version, Trace: set.FirstTrace(), Detail: fmt.Sprintf("%d signatures", set.Len())})
					}
				}
			}
		}
		svc = siggen.NewService(lcfg)
		defer svc.Close()
		reg.Register(obs.SiggenCollector(svc.Stats))
		if *checkpoint != "" && svc.Stats().CheckpointRestored {
			log.Printf("learn: checkpoint %s restored", *checkpoint)
		}
	}

	// The daemon fronts either one engine or a pool of them; backend
	// abstracts the difference for ingest, reload, and stats.
	var be backend
	if *pool {
		be = newPoolBackend(set, engine.PoolConfig{
			Engine:      cfg,
			ShardBudget: *shardBudget,
			MaxTenants:  *maxTenants,
			IdleAfter:   *idle,
			ConfigureTenant: func(key string, cfg engine.Config) engine.Config {
				cfg.Sink = out.sink(key, shipper)
				if svc != nil {
					cfg.Sink = engine.TeeSink(cfg.Sink, svc.MissSinkFor(key))
				}
				return cfg
			},
		}, *tenantBy)
	} else {
		cfg.Sink = out.sink("", shipper)
		if svc != nil {
			miss := svc.MissSink()
			if *learnTenants {
				// Single-engine learning with tenant labels: tenancy rides
				// on packet fields, so named sets still form per tenant.
				miss = svc.MissSinkBy(tenantKeyFn(*tenantBy))
			}
			cfg.Sink = engine.TeeSink(cfg.Sink, miss)
		}
		be = &engineBackend{eng: engine.New(set, cfg)}
	}
	switch b := be.(type) {
	case *engineBackend:
		reg.Register(obs.EngineCollector(b.eng.Metrics, b.eng.ShardStats))
	case *poolBackend:
		reg.Register(obs.PoolCollector(b.pool.Metrics))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if *server == "" {
		// No server to wait on: whatever -sigs loaded is all the
		// signatures this process will ever have, so it is as ready now as
		// it will ever be.
		ready.Store(true)
	}

	// The last-known-good cache: boot serving whatever the previous run
	// saw published, so a dead sigserver degrades this daemon instead of
	// blanking it. The watch below overwrites both the engines and the
	// cache the moment the server answers.
	var cache *durable.SetCache
	if *sigCache != "" {
		var loaded bool
		var err error
		cache, loaded, err = durable.OpenSetCache(*sigCache)
		if err != nil {
			log.Fatalf("opening -sig-cache: %v", err)
		}
		if !loaded && cache.Len() == 0 {
			log.Printf("sig-cache %s: empty (first run or unreadable); nothing to serve until the server answers", *sigCache)
		}
		if *server != "" && cache.Len() > 0 {
			applied := 0
			for _, name := range cache.Names() {
				cached, ok := cache.Get(name)
				if !ok {
					continue
				}
				if name == "" {
					be.reload(cached)
				} else {
					be.reloadTenant(name, cached)
				}
				applied++
			}
			if applied > 0 {
				ready.Store(true)
				degraded.Store(true)
				log.Printf("sig-cache %s: serving %d cached set(s) in degraded mode until the server answers", *sigCache, applied)
				flight.Trigger(trace.KindDegraded, trace.FlightEvent{
					Kind: trace.KindDegraded, Shard: -1, Value: int64(applied),
					Detail: "booted from sig-cache; sigserver not yet confirmed",
				})
				if shipper != nil {
					shipper.Ship(obs.Event{Type: "degraded", Detail: fmt.Sprintf("serving %d cached set(s) from %s", applied, *sigCache)})
				}
			}
		}
	}

	// liveDelivery is what every watch callback runs first: persist the
	// set, and if this is the first server contact since boot, clear the
	// degraded latch.
	liveDelivery := func(name string, set *signature.Set) {
		if cache != nil {
			if err := cache.Put(name, set); err != nil {
				log.Printf("sig-cache write: %v", err)
			}
		}
		if degraded.CompareAndSwap(true, false) {
			log.Printf("sigserver reachable again: leaving degraded mode")
			if shipper != nil {
				shipper.Ship(obs.Event{Type: "degraded", Version: set.Version, Set: name, Detail: "recovered: live set delivered"})
			}
		}
	}

	if *server != "" {
		client := sigserver.NewClient(*server, inj.Client(nil))
		if *pool {
			// Pool mode follows the server's whole set catalog: the
			// default set rolls unpinned tenants, each named set pins its
			// tenant — the HTTP route for per-tenant learned signatures.
			go func() {
				err := client.WatchSets(ctx, *poll, func(name string, set *signature.Set) {
					ready.Store(true)
					liveDelivery(name, set)
					if name == "" {
						applyReload(be, set, tracer, shipper, "")
						log.Printf("signatures reloaded: version %d, %d entries", set.Version, set.Len())
						return
					}
					start := time.Now()
					be.reloadTenant(name, set)
					tracer.Observe(trace.StageReloadApply, time.Since(start))
					if shipper != nil {
						shipper.Ship(obs.Event{Type: "reload", Set: name, Version: set.Version, Trace: set.FirstTrace()})
					}
					log.Printf("tenant %q signatures pinned: version %d, %d entries", name, set.Version, set.Len())
				})
				if err != nil && ctx.Err() == nil {
					log.Printf("signature watch ended: %v", err)
				}
			}()
		} else {
			go func() {
				err := client.Watch(ctx, *poll, func(set *signature.Set) {
					ready.Store(true)
					liveDelivery("", set)
					applyReload(be, set, tracer, shipper, "")
					log.Printf("signatures reloaded: version %d, %d entries", set.Version, set.Len())
				})
				if err != nil && ctx.Err() == nil {
					log.Printf("signature watch ended: %v", err)
				}
			}()
		}
	}

	if *p99Breach > 0 {
		// The p99 watchdog: one of the flight recorder's three trigger
		// conditions (with drop bursts and sink stalls, detected in the
		// engine itself).
		go func() {
			t := time.NewTicker(5 * time.Second)
			defer t.Stop()
			for range t.C {
				snap, ok := be.stats("")
				if !ok {
					continue
				}
				var p99 time.Duration
				switch m := snap.(type) {
				case engine.Snapshot:
					p99 = m.P99
				case engine.PoolSnapshot:
					p99 = m.Aggregate.P99
				}
				if p99 > *p99Breach {
					flight.Trigger(trace.KindP99Breach, trace.FlightEvent{
						Kind: trace.KindP99Breach, Shard: -1,
						Value: p99.Nanoseconds(), Detail: "p99 over " + p99Breach.String(),
					})
				}
			}
		}()
	}

	if *statsInt > 0 {
		go func() {
			t := time.NewTicker(*statsInt)
			defer t.Stop()
			for range t.C {
				log.Print(be.statsLine())
			}
		}()
	}

	var ingest *http.Server
	if *listen != "" {
		ingest = &http.Server{Addr: *listen, Handler: ingestHandler(be, ops)}
		go func() {
			log.Printf("HTTP ingest on %s (/ingest, /match, /stats, /metrics, /healthz, /readyz)", *listen)
			if err := ingest.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Fatal(err)
			}
		}()
	}
	if *debugAddr != "" {
		go func() {
			log.Printf("debug listener on %s (/metrics, /debug/flight, /debug/pprof)", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, obs.DebugHandler(reg, flight)); err != nil {
				log.Fatal(err)
			}
		}()
	}

	// Stdin is always consumed: in pipe mode it is the packet source; in
	// daemon mode it typically hits EOF immediately and only -listen feeds
	// the engine.
	if *listen == "" {
		accepted, rejected := streamNDJSON(os.Stdin, ops.submitter(be, ""))
		// Closing the backend drains every queued packet through the
		// matcher — and, with -learn, through the miss sink — so the
		// final learn epoch below sees the complete stream.
		be.close()
		out.flush()
		if svc != nil {
			set, err := svc.RunEpoch(ctx)
			if err != nil {
				log.Printf("learn: final epoch: %v", err)
			} else if set == nil {
				log.Printf("learn: final epoch published nothing")
			}
		}
		log.Printf("stdin done: %d accepted, %d rejected lines", accepted, rejected)
		log.Print(be.statsLine())
		return
	}

	// Daemon mode: stdin off the main goroutine so SIGTERM is answered
	// even mid-stream, then serve until signalled. Shutdown order is the
	// reverse of the data flow: stop intake, drain the engine rings, run
	// a final learn epoch, then let the deferred closes checkpoint the
	// learner and flush the event shipper.
	go func() {
		accepted, rejected := streamNDJSON(os.Stdin, ops.submitter(be, ""))
		log.Printf("stdin done: %d accepted, %d rejected lines", accepted, rejected)
	}()
	sigCtx, sigStop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer sigStop()
	<-sigCtx.Done()
	sigStop()
	log.Printf("shutting down: draining intake and engine rings")
	if ingest != nil {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		ingest.Shutdown(sctx)
		scancel()
	}
	cancel()   // end the signature watch
	be.close() // drain every queued packet through the matcher
	out.flush()
	if svc != nil {
		if _, err := svc.RunEpoch(context.Background()); err != nil {
			log.Printf("learn: final epoch: %v", err)
		}
	}
	log.Print(be.statsLine())
}

// backend abstracts the single-engine and multi-tenant postures for the
// daemon's ingest, reload, and stats paths.
type backend interface {
	// submitter returns the queueing function for one stream. tenant is
	// the stream-level override ("" means route per packet).
	submitter(tenant string) func(*httpmodel.Packet) error
	// match vets one packet synchronously; the verdict's Matched and
	// Version come from the same signature generation.
	match(tenant string, p *httpmodel.Packet) engine.Verdict
	reload(set *signature.Set)
	// reloadTenant pins one tenant's named set; a single-engine backend
	// has no tenants and ignores it.
	reloadTenant(name string, set *signature.Set)
	statsLine() string
	// stats returns the JSON-ready snapshot; tenant selects one tenant's
	// view in pool mode ("" means everything). It reports whether the
	// tenant exists.
	stats(tenant string) (any, bool)
	close()
}

// errRateLimited is what a limited submit returns under -rate-policy
// reject; under drop the packet is shed silently and only the limiter's
// counters record it.
var errRateLimited = errors.New("tenant over intake rate limit")

// applyReload rolls one published set into the backend under its trace
// context: a span adopted from the set's provenance records the apply
// stage, and the shipped reload event carries the issued-vs-applied
// ticket accounting that makes reload coalescing visible.
func applyReload(be backend, set *signature.Set, tracer *trace.Tracer, shipper *obs.Shipper, name string) {
	sp := tracer.Adopt(set.FirstTrace())
	start := time.Now()
	be.reload(set)
	tracer.Observe(trace.StageReloadApply, time.Since(start))
	sp.Stamp(trace.StageReloadApply)
	sp.Finish()
	if shipper != nil {
		shipper.Ship(obs.Event{
			Type: "reload", Set: name, Version: set.Version,
			Trace: set.FirstTrace(), Detail: reloadOutcome(be),
		})
	}
}

// reloadOutcome summarizes the backend's reload-coalescing books: tickets
// issued versus generations actually applied (the gap is publishes
// coalesced away or still compiling).
func reloadOutcome(be backend) string {
	snap, ok := be.stats("")
	if !ok {
		return ""
	}
	switch m := snap.(type) {
	case engine.Snapshot:
		return fmt.Sprintf("issued=%d applied=%d", m.ReloadIssued, m.ReloadGen)
	case engine.PoolSnapshot:
		return fmt.Sprintf("issued=%d applied=%d", m.Aggregate.ReloadIssued, m.Aggregate.ReloadGen)
	}
	return ""
}

// opsState carries the daemon-wide ops plane: the intake limiter wrapped
// around every submit path, the metrics registry behind /metrics, and
// the readiness latch behind /readyz.
type opsState struct {
	limiter  *obs.RateLimiter
	keyFn    func(*httpmodel.Packet) string
	reject   bool // -rate-policy reject (vs drop)
	reg      *obs.Registry
	ready    *atomic.Bool
	degraded *atomic.Bool // serving cached signatures, server unreachable
	tracer   *trace.Tracer
	flight   *trace.Flight
}

// submitter wraps the backend's queueing function with per-tenant intake
// limiting. tenant is the stream-level override; when empty each packet
// is keyed individually, so the limiter sees the same tenancy the pool
// and learner do.
func (o *opsState) submitter(be backend, tenant string) func(*httpmodel.Packet) error {
	submit := be.submitter(tenant)
	return func(p *httpmodel.Packet) error {
		p.BeginTrace(o.tracer)
		key := tenant
		if key == "" {
			key = o.keyFn(p)
		}
		if !o.limiter.Allow(key) {
			// Shed packets are drops like any other: the flight recorder's
			// burst detector turns a shedding storm into a dump trigger.
			o.flight.RecordDrop(-1, p.Trace)
			p.EndTrace() // the limited packet's journey ends here
			if o.reject {
				return errRateLimited
			}
			return nil // drop policy: shed silently, the limiter counted it
		}
		if p.Span != nil {
			p.Span.Stamp(trace.StageRateLimit)
		}
		return submit(p)
	}
}

// engineBackend is the classic single-population daemon.
type engineBackend struct{ eng *engine.Engine }

func (b *engineBackend) submitter(string) func(*httpmodel.Packet) error {
	return b.eng.Submit
}

func (b *engineBackend) match(_ string, p *httpmodel.Packet) engine.Verdict {
	return b.eng.Vet(p)
}

// reload is async: the watcher loop must keep long-polling while a large
// set compiles on the engine's background compiler, and a publish burst
// coalesces into the newest set rather than queueing stale compiles.
func (b *engineBackend) reload(set *signature.Set)           { b.eng.ReloadAsync(set) }
func (b *engineBackend) reloadTenant(string, *signature.Set) {}
func (b *engineBackend) statsLine() string                   { return b.eng.Metrics().String() }
func (b *engineBackend) close()                              { b.eng.Close() }

func (b *engineBackend) stats(tenant string) (any, bool) {
	if tenant != "" {
		return nil, false
	}
	return b.eng.Metrics(), true
}

// poolBackend is the multi-tenant daemon: one engine per population.
type poolBackend struct {
	pool  *engine.Pool
	keyFn func(*httpmodel.Packet) string
}

// tenantKeyFn maps packets to tenant keys per the -tenant-by flag — the
// same keying for pool routing and for learner tenancy, so learned named
// sets always land on the tenants that produced the misses.
func tenantKeyFn(tenantBy string) func(*httpmodel.Packet) string {
	return func(p *httpmodel.Packet) string {
		key := p.App
		if tenantBy == "host" || key == "" {
			key = p.Host
		}
		if key == "" {
			key = "default"
		}
		return key
	}
}

func newPoolBackend(set *signature.Set, cfg engine.PoolConfig, tenantBy string) *poolBackend {
	return &poolBackend{pool: engine.NewPool(set, cfg), keyFn: tenantKeyFn(tenantBy)}
}

func (b *poolBackend) submitter(tenant string) func(*httpmodel.Packet) error {
	if tenant != "" {
		return func(p *httpmodel.Packet) error { return b.pool.Submit(tenant, p) }
	}
	return func(p *httpmodel.Packet) error { return b.pool.Submit(b.keyFn(p), p) }
}

func (b *poolBackend) match(tenant string, p *httpmodel.Packet) engine.Verdict {
	key := tenant
	if key == "" {
		key = b.keyFn(p)
	}
	eng := b.pool.Tenant(key)
	if eng == nil {
		return engine.Verdict{}
	}
	return eng.Vet(p)
}

func (b *poolBackend) reload(set *signature.Set) { b.pool.Reload(set) }
func (b *poolBackend) reloadTenant(name string, set *signature.Set) {
	b.pool.ReloadTenant(name, set)
}
func (b *poolBackend) close() { b.pool.Close() }

func (b *poolBackend) statsLine() string {
	s := b.pool.Metrics()
	return fmt.Sprintf("pool: tenants=%d created=%d evicted=%d shards=%d/%d in=%d out=%d matched=%d dropped=%d pps=%.0f",
		s.Tenants, s.Created, s.Evicted, s.ShardsInUse, s.ShardBudget,
		s.Aggregate.Ingested, s.Aggregate.Processed, s.Aggregate.Matched,
		s.Aggregate.Dropped, s.Aggregate.PacketsPerSec)
}

func (b *poolBackend) stats(tenant string) (any, bool) {
	if tenant == "" {
		return b.pool.Metrics(), true
	}
	snap, ok := b.pool.TenantMetrics(tenant)
	if !ok {
		return nil, false
	}
	return snap, true
}

// streamNDJSON feeds packets from one NDJSON stream into the submit
// function. Malformed or invalid lines are reported and skipped.
func streamNDJSON(r io.Reader, submit func(*httpmodel.Packet) error) (accepted, rejected int) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		p := new(httpmodel.Packet)
		if err := json.Unmarshal(line, p); err != nil {
			log.Printf("skipping malformed packet line: %v", err)
			rejected++
			continue
		}
		if err := p.Validate(); err != nil {
			log.Printf("skipping invalid packet: %v", err)
			rejected++
			continue
		}
		if err := submit(p); err != nil {
			log.Printf("submit: %v", err)
			rejected++
			continue
		}
		accepted++
	}
	if err := sc.Err(); err != nil {
		log.Printf("reading stdin: %v", err)
	}
	return accepted, rejected
}

// verdictLine is the NDJSON verdict schema.
type verdictLine struct {
	ID        int64  `json:"id"`
	App       string `json:"app,omitempty"`
	Tenant    string `json:"tenant,omitempty"`
	Host      string `json:"host"`
	Leak      bool   `json:"leak"`
	Matched   []int  `json:"matched,omitempty"`
	Version   int64  `json:"version"`
	LatencyUS int64  `json:"latency_us,omitempty"`
	Trace     string `json:"trace,omitempty"`
}

func toLine(tenant string, v engine.Verdict) verdictLine {
	return verdictLine{
		ID:        v.Packet.ID,
		App:       v.Packet.App,
		Tenant:    tenant,
		Host:      v.Packet.Host,
		Leak:      v.Leak(),
		Matched:   v.Matched,
		Version:   v.Version,
		LatencyUS: int64(v.Latency / time.Microsecond),
		Trace:     v.Packet.Trace,
	}
}

// verdictFlushInterval bounds how long a verdict may sit in the output
// buffer; flushing per verdict would cost one syscall per packet.
const verdictFlushInterval = 25 * time.Millisecond

// verdictWriter serializes verdicts from concurrent shard workers onto
// one NDJSON stream, flushing on a ticker rather than per line so the
// engine's batching is not undone by per-packet write(2) calls.
type verdictWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
}

func newVerdictWriter(w io.Writer) *verdictWriter {
	bw := bufio.NewWriter(w)
	vw := &verdictWriter{bw: bw, enc: json.NewEncoder(bw)}
	go func() {
		t := time.NewTicker(verdictFlushInterval)
		defer t.Stop()
		for range t.C {
			vw.flush()
		}
	}()
	return vw
}

// sink returns the engine sink of one tenant ("" for the single-engine
// daemon): each drain's verdicts become NDJSON lines under one lock, and
// its leaks ship as ops-plane events (clean traffic is volume, leaks are
// signal). The shipper never blocks the verdict path — a wedged event
// consumer costs dropped events, not matching throughput — but it keeps
// events past the call, so a shipped event copies the borrowed Matched.
func (vw *verdictWriter) sink(tenant string, shipper *obs.Shipper) engine.Sink {
	return engine.BatchCallbackSink(func(vs []engine.Verdict) {
		vw.mu.Lock()
		for _, v := range vs {
			vw.enc.Encode(toLine(tenant, v))
		}
		vw.mu.Unlock()
		if shipper == nil {
			return
		}
		for _, v := range vs {
			if !v.Leak() {
				continue
			}
			shipper.Ship(obs.Event{
				Type:    "verdict",
				Tenant:  tenant,
				App:     v.Packet.App,
				Host:    v.Packet.Host,
				Matched: append([]int(nil), v.Matched...),
				Version: v.Version,
				Trace:   v.Packet.Trace,
			})
		}
	})
}

func (vw *verdictWriter) flush() {
	vw.mu.Lock()
	vw.bw.Flush()
	vw.mu.Unlock()
}

// tenantOf resolves the stream-level tenant override of one HTTP request:
// the ?tenant= query parameter wins, then the X-Leaksig-Tenant header;
// empty means route per packet.
func tenantOf(r *http.Request) string {
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	return r.Header.Get("X-Leaksig-Tenant")
}

// ingestHandler exposes the backend over HTTP, every submit path routed
// through the ops plane's intake limiter.
func ingestHandler(be backend, ops *opsState) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		accepted, rejected := streamNDJSON(r.Body, ops.submitter(be, tenantOf(r)))
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"accepted":%d,"rejected":%d}`+"\n", accepted, rejected)
	})
	mux.HandleFunc("POST /match", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		tenant := tenantOf(r)
		enc := json.NewEncoder(w)
		sc := bufio.NewScanner(r.Body)
		// Same 1 MiB line cap as /ingest, but grown on demand: the usual
		// /match body is one packet, and a megabyte allocated and zeroed
		// per request was most of this daemon's garbage under a vet or
		// probe load.
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			p := new(httpmodel.Packet)
			if err := json.Unmarshal(sc.Bytes(), p); err != nil {
				// The status line is already committed, so a bad line
				// becomes an in-band NDJSON error and the stream goes on —
				// same skip semantics as /ingest.
				enc.Encode(map[string]string{"error": err.Error()})
				continue
			}
			v := be.match(tenant, p)
			enc.Encode(verdictLine{
				ID:      p.ID,
				App:     p.App,
				Tenant:  tenant,
				Host:    p.Host,
				Leak:    v.Leak(),
				Matched: v.Matched,
				Version: v.Version,
			})
		}
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		snap, ok := be.stats(r.URL.Query().Get("tenant"))
		if !ok {
			http.Error(w, "unknown tenant", http.StatusNotFound)
			return
		}
		obs.WriteJSON(w, snap)
	})
	mux.Handle("GET /metrics", ops.reg.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Distinct from /healthz on purpose: the process is alive the
		// moment it serves, but routing traffic to it before a signature
		// set is live would vet packets against nothing.
		if !ops.ready.Load() {
			http.Error(w, "no signature set yet", http.StatusServiceUnavailable)
			return
		}
		if ops.degraded != nil && ops.degraded.Load() {
			// Still 200 — cached signatures are real signatures — but the
			// body tells the balancer (and the smoke test) which mode this
			// is.
			io.WriteString(w, "ready-degraded")
			return
		}
		io.WriteString(w, "ready")
	})
	return mux
}

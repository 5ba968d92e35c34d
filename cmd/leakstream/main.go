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
// With -learn URL the daemon feeds the generation loop: every packet the
// live signature set does not match is forwarded in batches to the
// siggend intake at URL (POST /observe, with -learn-token as its bearer
// token), exactly as flowproxy -learn forwards its unmatched requests.
// siggend clusters the misses, distills candidate signatures, and
// auto-publishes accepted sets to the sigserver this daemon watches, so
// its own engine (and every other watcher) hot-reloads what was
// learned. siggend's own flags set the epoch cadence, the benign
// corpus, the cluster size, the checkpoint, and the tenant key.
//
// With siggend -tenant-sets the learner also distills one named set per
// tenant and publishes each under /sets/{tenant}/ with its own version
// sequence. In pool mode this daemon watches the server's whole set
// catalog: the default set reloads unpinned tenants, and each named set
// pins its tenant via ReloadTenant — so tenant A's learned signatures
// fire only on tenant A's traffic, the per-population isolation of the
// paper's per-module signatures. Signatures whose source clusters go
// stale are dropped from the next published versions (drift
// retirement), and the watchers converge off them automatically.
//
// Usage:
//
//	leakstream -server http://127.0.0.1:8700 < capture.jsonl > verdicts.jsonl
//	leakstream -sigs signatures.json -listen :8900
//	leakstream -sigs signatures.json -listen :8900 -pool -tenant-by app -idle 5m
//	leakstream -server http://127.0.0.1:8700 -learn http://127.0.0.1:8810 < capture.jsonl > verdicts.jsonl
//	leakstream -server http://127.0.0.1:8700 -pool -learn http://127.0.0.1:8810 < capture.jsonl
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
// ships leak verdicts and reloads as batched NDJSON events
// without ever blocking intake, and -debug-addr opens a private
// listener with /metrics and /debug/pprof for operators.
//
// Robustness flags: -sig-cache persists every watch delivery as a
// last-known-good file, and a boot against an unreachable -server
// serves the cached sets immediately — /readyz answers 200
// "ready-degraded" and the leaksig_degraded gauge holds 1 until the
// server answers again. -faults (or LEAKSIG_FAULTS) injects
// deterministic chaos into outbound HTTP. SIGTERM drains the intake
// listener and engine rings, ships the misses still buffered for
// -learn, and flushes the event shipper before exit.
package main

import (
	"flag"
	"time"

	"leaksig/internal/daemon"
)

func main() {
	var c daemon.Leakstream
	flag.StringVar(&c.Server, "server", "", "signature server base URL (hot reload via long poll)")
	flag.StringVar(&c.Sigs, "sigs", "", "signature set file (static alternative to -server)")
	flag.StringVar(&c.SigCache, "sig-cache", "", "last-known-good signature cache file: every watch delivery is persisted, and a boot against an unreachable -server serves the cached sets in degraded mode instead of refusing traffic")
	flag.StringVar(&c.Listen, "listen", "", "HTTP ingest address (empty: stdin only)")
	flag.IntVar(&c.Shards, "shards", 0, "worker shards per engine (0: GOMAXPROCS)")
	flag.IntVar(&c.Queue, "queue", 0, "per-shard queue depth in packets (0: default)")
	flag.DurationVar(&c.Poll, "poll", 10*time.Second, "fallback poll interval with -server")
	flag.DurationVar(&c.Stats, "stats", 0, "metrics reporting interval on stderr (0: off)")
	flag.StringVar(&c.Affinity, "affinity", "host", "shard affinity: host | none")

	flag.BoolVar(&c.Pool, "pool", false, "multi-tenant mode: one engine per tenant population")
	flag.StringVar(&c.TenantBy, "tenant-by", "app", "packet field keying tenants with -pool: app | host")
	flag.DurationVar(&c.Idle, "idle", 0, "evict tenants idle this long with -pool (0: never)")
	flag.IntVar(&c.ShardBudget, "shard-budget", 0, "total shards across tenants with -pool (0: GOMAXPROCS)")
	// Tenant keys come from request headers and packet fields —
	// attacker-controlled in an exposed deployment — so the cap
	// defaults bounded: past it the least-recently-active tenant is
	// recycled rather than goroutines growing without limit.
	flag.IntVar(&c.MaxTenants, "max-tenants", 1024, "live tenant cap with -pool, LRU-evicted past it")

	flag.Float64Var(&c.TenantRate, "tenant-rate", 0, "per-tenant sustained intake limit in packets/sec (0: account only, never limit)")
	flag.Float64Var(&c.TenantBurst, "tenant-burst", 0, "per-tenant intake burst depth (0: one second of -tenant-rate)")
	flag.StringVar(&c.RatePolicy, "rate-policy", "drop", "over-limit intake policy: drop (shed silently, counted) | reject (error the line)")
	flag.DurationVar(&c.P99Breach, "p99-breach", 0, "flight-dump trigger when engine p99 latency exceeds this (0: off)")
	c.Ops.RegisterFlags(flag.CommandLine, "leakstream")
	flag.Parse()
	daemon.Main("leakstream", c.Run)
}

// Command siggend is the online signature-generation daemon: the server
// half of the paper's Figure 3(a) run as a live loop instead of a
// one-shot pipeline. It ingests suspect flows (misses forwarded by
// leakstream, flowproxy, or any NDJSON producer), maintains rolling
// clusters over a bounded per-tenant sample, distills conjunction
// signatures gated by a Bayes model and a held-out benign corpus, and
// auto-publishes accepted sets to a sigserver — which every watching
// engine hot-reloads. No manual leakgen/leakcluster invocation remains
// in the loop.
//
// Usage:
//
//	siggend -server http://127.0.0.1:8700 -listen :8810 -interval 30s
//	siggend -server http://127.0.0.1:8700 -benign benign.jsonl < misses.jsonl
//	siggend -server http://127.0.0.1:8700 -tenant-by app -tenant-sets < misses.jsonl
//
// With -tenant-sets the learner distills one named set per tenant (the
// -tenant-by key) alongside the global set and publishes each under
// /sets/{tenant}/ with its own version sequence, so pools can pin
// per-population signatures via ReloadTenant instead of sharing one
// flattened set. Signatures whose source clusters go stale are dropped
// from the next published versions (drift retirement).
//
// Packets enter as NDJSON on stdin (pipe mode: a final epoch runs at
// EOF, then the daemon exits unless -listen is set) and/or over HTTP:
//
//	POST /observe — NDJSON packets in, offered to the learner;
//	                responds {"observed":N,"dropped":M}
//	GET  /stats   — learner statistics as JSON
//	GET  /metrics — Prometheus text exposition
//	GET  /healthz — liveness
//	GET  /readyz  — readiness: 503 until the first set publishes
//
// -events-url ships publish and retirement events as batched NDJSON;
// -debug-addr opens a private listener with /metrics and /debug/pprof.
//
// -checkpoint makes the learner crash-safe: reservoirs, clusters, the
// published catalog, and per-set version counters are written through an
// atomic checkpoint each epoch and restored on start, so a restarted
// daemon resumes its version sequences instead of being 409'd by the
// server. -faults (or LEAKSIG_FAULTS) injects deterministic chaos into
// every outbound HTTP call; publishes ride a jittered-retry client with
// a circuit breaker either way. SIGTERM drains the intake, runs a final
// epoch, checkpoints, and flushes the event shipper.
//
// /observe is a write path into fleet signature generation: whoever can
// reach it influences what the learner clusters and ultimately
// publishes. Without -observe-token, bind -listen to loopback (or front
// it with an authenticating proxy) — the same exposure rule as
// sigserver's /publish.
package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"leaksig/internal/daemon"
)

func main() {
	c := daemon.Siggend{TenantBenign: map[string]string{}}
	flag.StringVar(&c.Server, "server", "", "sigserver base URL to auto-publish into (empty: generate only, log what would publish)")
	flag.StringVar(&c.Token, "token", "", "bearer token for the publish endpoint")
	flag.StringVar(&c.Listen, "listen", "", "HTTP intake address (empty: stdin only)")
	flag.StringVar(&c.ObserveToken, "observe-token", "", "bearer token required on POST /observe (empty: unauthenticated — keep -listen on loopback)")
	flag.DurationVar(&c.Interval, "interval", 30*time.Second, "generation epoch cadence (0: only the final stdin epoch)")
	flag.StringVar(&c.Benign, "benign", "", "benign capture (JSONL) for the Bayes and held-out FP gates")
	flag.Func("benign-tenant",
		"per-tenant benign capture as name=path (repeatable); candidates attributed to the named tenant must also clear that corpus' FP gate",
		func(v string) error {
			tenant, path, ok := strings.Cut(v, "=")
			if !ok || tenant == "" || path == "" {
				return fmt.Errorf("want name=path, got %q", v)
			}
			if _, dup := c.TenantBenign[tenant]; dup {
				return fmt.Errorf("tenant %q given twice", tenant)
			}
			c.TenantBenign[tenant] = path
			return nil
		})
	flag.StringVar(&c.TenantBy, "tenant-by", "app", "reservoir tenant key: app | host | none")
	flag.BoolVar(&c.TenantSets, "tenant-sets", false, "publish one named set per tenant alongside the global set")

	flag.IntVar(&c.Reservoir, "reservoir", 256, "per-tenant reservoir size")
	flag.IntVar(&c.MaxTenants, "max-tenants", 64, "tenants with private reservoirs; the rest share one")
	flag.IntVar(&c.MaxClusters, "max-clusters", 64, "rolling cluster table size")
	flag.IntVar(&c.MaxMembers, "max-members", 64, "member window per cluster")
	flag.IntVar(&c.MinCluster, "min-cluster", 3, "members a cluster needs before emitting a signature")
	flag.Float64Var(&c.Join, "join", 0.22, "cluster join threshold as a fraction of the metric maximum")
	flag.Float64Var(&c.MaxFP, "max-fp", 0.01, "held-out benign fraction a signature may match")
	flag.IntVar(&c.MinSamples, "min-samples", 8, "new samples required before a timed epoch generates")
	flag.Int64Var(&c.Seed, "seed", 1, "sampling seed")
	flag.DurationVar(&c.Stats, "stats", 0, "stats reporting interval on stderr (0: off)")
	flag.StringVar(&c.Checkpoint, "checkpoint", "", "learner checkpoint file: restore on start, rewrite each epoch and at shutdown (empty: learner state dies with the process)")
	c.Ops.RegisterFlags(flag.CommandLine, "siggend")
	flag.Parse()
	daemon.Main("siggend", c.Run)
}

// Command sigserver serves a signature set over HTTP — the distribution
// half of the paper's Figure 3(a). Devices running flowproxy or
// leakstream watch it for updates; a new set can be published into the
// running server through the publish endpoint, and every long-poll
// watcher picks the rollover up within one round trip.
//
// Usage:
//
//	sigserver -addr :8700 -sigs signatures.json -token S3CRET
//	sigserver -addr 127.0.0.1:8700          # start empty; siggend fills it
//	curl -X POST -H 'Authorization: Bearer S3CRET' \
//	     --data-binary @new.json http://127.0.0.1:8700/publish
//
// A publish whose body carries a non-zero "version" engages the
// strict-increase guard: versions at or below the current one are
// rejected with 409 Conflict (and counted in GET /stats as
// publishes_rejected), so a stale or looping auto-publisher can never
// roll the fleet backwards. A zero version auto-bumps, preserving the
// manual curl workflow.
//
// GET /metrics serves Prometheus text exposition (per-set publish
// counters under the set label, the default set as the empty label);
// GET /readyz answers 503 until a seed load or first publish gives the
// server something to distribute. -events-url ships every accepted
// publish as a structured NDJSON event; -debug-addr opens a private
// listener with /metrics and /debug/pprof.
//
// -journal makes publishes crash-safe: every publish appends its set to
// an fsync'd CRC-framed journal before the set is installed, watchers
// are woken or the publish is acked, and a restarted server replays the
// journal before listening, so an acked publish is never lost and no
// watcher ever observes a rollback. A publish the journal cannot append
// is answered 500 and changes nothing. -journal-fsync picks the
// durability/latency trade (always | interval | never); under always, a
// failed fsync fails the publish too. Under interval a publish syncs
// only when the last sync is 100 ms old, so a publish made sooner stays
// unsynced until a later publish arrives past the interval or the
// server shuts down: the loss window is bounded only while publishes
// keep coming. SIGTERM drains in-flight requests, syncs the journal,
// and flushes the event shipper before exiting.
//
// Without -token the publish endpoint is open: bind -addr to loopback
// (or front it with an authenticating proxy) before exposing the
// read-only API beyond the host, or anyone who can reach the port can
// replace the fleet's signature set.
package main

import (
	"flag"

	"leaksig/internal/daemon"
)

func main() {
	var c daemon.Sigserver
	flag.StringVar(&c.Addr, "addr", ":8700", "listen address")
	flag.StringVar(&c.Sigs, "sigs", "", "signature set to publish at startup (empty: start empty at version 0)")
	flag.StringVar(&c.Token, "token", "", "bearer token required on POST /publish (empty: unauthenticated)")

	flag.StringVar(&c.Journal, "journal", "", "durable publish journal: replay on start, append every accepted publish (empty: publishes live in memory only)")
	flag.StringVar(&c.JournalFsync, "journal-fsync", "always", "journal fsync policy: always | interval | never")
	c.Ops.RegisterFlags(flag.CommandLine, "sigserver")
	flag.Parse()
	daemon.Main("sigserver", c.Run)
}

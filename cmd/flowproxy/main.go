// Command flowproxy runs the on-device information flow control
// application of the paper's Figure 3(b) as a local HTTP forward proxy:
// point applications (or a test client) at it, and it vets every request
// against the signature set, blocking or logging transmissions of
// sensitive information.
//
// Vetting runs through a streaming engine backend, so the proxy shares
// the engine's telemetry (inline vets land in the SyncVetted/SyncMatched
// counters of the periodic stats line) and its hot-reload path: with
// -server, a sigserver watch swaps the compiled set atomically on every
// publish. With -learn, requests that match nothing — exactly the flows
// the current signatures cannot explain — are forwarded in batches to a
// siggend intake, feeding the online generation loop that will publish
// the signatures this proxy later enforces.
//
// Usage:
//
//	flowproxy -addr :8080 -sigs signatures.json -policy block
//	flowproxy -addr :8080 -server http://sigserver:8700 -refresh 30s
//	flowproxy -addr :8080 -server http://sigserver:8700 -learn http://siggend:8810
//	flowproxy -addr :8080 -sigs signatures.json -debug-addr 127.0.0.1:8081
//
// The main address is the proxy itself — every verb and path forwards —
// so the ops plane lives on -debug-addr: /metrics (engine, proxy
// decision, and shipper families), /stats as JSON, /readyz, and
// /debug/pprof. -events-url ships every policy decision on a matching
// request as a structured NDJSON event.
package main

import (
	"flag"
	"time"

	"leaksig/internal/daemon"
)

func main() {
	var c daemon.Flowproxy
	flag.StringVar(&c.Addr, "addr", ":8080", "proxy listen address")
	flag.StringVar(&c.Sigs, "sigs", "", "signature set file (static)")
	flag.StringVar(&c.Server, "server", "", "signature server base URL (dynamic)")
	flag.DurationVar(&c.Refresh, "refresh", 30*time.Second, "poll interval with -server")
	flag.StringVar(&c.Policy, "policy", "block", "block | log (log allows but records)")
	c.Ops.RegisterFlags(flag.CommandLine, "flowproxy")
	flag.Parse()
	daemon.Main("flowproxy", c.Run)
}

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
// decision, and learn-forwarder families), /stats as JSON, and
// /debug/pprof. -events-url ships every policy decision on a matching
// request as a structured NDJSON event.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"leaksig/internal/engine"
	"leaksig/internal/faultinject"
	"leaksig/internal/flowcontrol"
	"leaksig/internal/httpmodel"
	"leaksig/internal/obs"
	"leaksig/internal/obs/trace"
	"leaksig/internal/resilience"
	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("flowproxy: ")
	var (
		addr       = flag.String("addr", ":8080", "proxy listen address")
		sigsIn     = flag.String("sigs", "", "signature set file (static)")
		server     = flag.String("server", "", "signature server base URL (dynamic)")
		refresh    = flag.Duration("refresh", 30*time.Second, "poll interval with -server")
		policy     = flag.String("policy", "block", "block | log (log allows but records)")
		learn      = flag.String("learn", "", "siggend base URL; unmatched flows are forwarded to its /observe intake")
		learnToken = flag.String("learn-token", "", "bearer token for the siggend /observe intake")

		eventsURL   = flag.String("events-url", "", "ship structured events as batched NDJSON POSTs to this endpoint")
		eventsToken = flag.String("events-token", "", "bearer token for -events-url uploads")
		debugAddr   = flag.String("debug-addr", "", "private ops listener: /metrics, /stats, /healthz, /readyz, /debug/pprof, /debug/flight")
		faults      = flag.String("faults", "", `chaos injection spec for outbound HTTP, e.g. "seed=7,reset=0.1,latency_p=0.1,latency=20ms" (empty: read LEAKSIG_FAULTS)`)

		traceSample = flag.Int("trace-sample", 0, "head-sample 1 in N learn-forwarded misses with a trace ID, so the signature each one seeds can be followed back here (0: off)")
	)
	flag.Parse()

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
	var shipper *obs.Shipper
	if *eventsURL != "" {
		shipper = obs.NewShipper(obs.ShipperConfig{
			URL: *eventsURL, Token: *eventsToken, Node: "flowproxy",
			HTTPClient: inj.Client(nil),
		})
		defer shipper.Close()
		reg.Register(shipper)
	}
	tracer := trace.NewTracer(*traceSample)
	reg.Register(obs.TracerCollector(tracer))
	flight := trace.NewFlight(1, 0)
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

	// Readiness: with static signatures (or none) the proxy can vet as
	// soon as it listens; with -server it is not ready until the first
	// watch callback lands a set, since before that it would enforce
	// nothing the fleet has agreed on.
	var ready atomic.Bool
	if *server == "" {
		ready.Store(true)
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

	var pol flowcontrol.Policy
	switch *policy {
	case "block":
		pol = flowcontrol.BlockMatched()
	case "log":
		pol = flowcontrol.PolicyFunc(func(p *httpmodel.Packet, matched []int) flowcontrol.Action {
			if len(matched) > 0 {
				log.Printf("LEAK (allowed by policy): %s %s%s matched %v", p.Method, p.Host, p.Path, matched)
			}
			return flowcontrol.Allow
		})
	default:
		log.Fatalf("unknown policy %q", *policy)
	}
	if shipper != nil {
		// Every decision on a matching request is an ops-plane event —
		// blocked exfiltration and policy-allowed leaks alike. The wrap
		// costs one closure call on the vet path; shipping never blocks.
		inner := pol
		pol = flowcontrol.PolicyFunc(func(p *httpmodel.Packet, matched []int) flowcontrol.Action {
			action := inner.Decide(p, matched)
			if len(matched) > 0 {
				shipper.Ship(obs.Event{
					Type:    "decision",
					App:     p.App,
					Host:    p.Host,
					Matched: matched,
					Detail:  action.String(),
				})
			}
			return action
		})
	}

	// The engine backend gives the proxy sharded compilation, atomic hot
	// reload, and shared telemetry; its worker shards stay idle (vetting
	// is inline via MatchPacket), costing only parked goroutines.
	eng := engine.New(set, engine.Config{Shards: 1, Flight: flight})
	var be flowcontrol.Backend = eng
	var fwd *missForwarder
	if *learn != "" {
		fwd = newMissForwarder(*learn, *learnToken, inj.Client(nil), tracer, flight)
		be = flowcontrol.NewObservedBackend(eng, fwd.offer)
		reg.Register(obs.BreakerCollector("learn_forward", fwd.br))
	}
	proxy := flowcontrol.NewProxyWith(be, pol, nil)
	fmt.Printf("flow control proxy on %s with %d signatures (policy: %s)\n",
		*addr, set.Len(), *policy)

	reg.Register(obs.EngineCollector(eng.Metrics, eng.ShardStats))
	reg.Register(obs.ProxyCollector(proxy.Stats))
	if fwd != nil {
		reg.Register(obs.CollectorFunc(func(m *obs.MetricWriter) {
			sent, dropped := fwd.stats()
			m.Counter("leaksig_proxy_learn_forwarded_total", "Unmatched flows delivered to the siggend intake.", float64(sent))
			m.Counter("leaksig_proxy_learn_dropped_total", "Unmatched flows dropped before the siggend intake (full buffer or failed POST).", float64(dropped))
		}))
	}
	if *debugAddr != "" {
		// The main address proxies every verb and path, so the ops plane
		// gets its own listener rather than stealing a URL from proxied
		// traffic.
		mux := http.NewServeMux()
		mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
			allowed, blocked := proxy.Stats()
			sent, dropped := int64(0), int64(0)
			if fwd != nil {
				sent, dropped = fwd.stats()
			}
			obs.WriteJSON(w, struct {
				Allowed      int64           `json:"allowed"`
				Blocked      int64           `json:"blocked"`
				LearnSent    int64           `json:"learn_sent"`
				LearnDropped int64           `json:"learn_dropped"`
				Engine       engine.Snapshot `json:"engine"`
			}{allowed, blocked, sent, dropped, eng.Metrics()})
		})
		mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
			if !ready.Load() {
				http.Error(w, "no signature set loaded yet", http.StatusServiceUnavailable)
				return
			}
			io.WriteString(w, "ready")
		})
		mux.Handle("/", obs.DebugHandler(reg, flight))
		go func() {
			log.Printf("debug listener on %s (/metrics, /stats, /readyz, /debug/pprof, /debug/flight)", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				log.Fatal(err)
			}
		}()
	}

	watchCtx, watchStop := context.WithCancel(context.Background())
	defer watchStop()
	if *server != "" {
		client := sigserver.NewClient(*server, inj.Client(nil))
		go func() {
			// Watch long-polls the server's /wait endpoint, so updates
			// land within one round trip; -refresh only bounds the retry
			// and fallback cadence.
			err := client.Watch(watchCtx, *refresh, func(newSet *signature.Set) {
				// Adopt the set's provenance trace, if it carries one, so
				// the reload apply closes that trace's loop in this process.
				var id string
				if len(newSet.Traces) > 0 {
					id = newSet.Traces[0]
				}
				sp := tracer.Adopt(id)
				start := time.Now()
				eng.Reload(newSet)
				tracer.Observe(trace.StageReloadApply, time.Since(start))
				sp.Stamp(trace.StageReloadApply)
				sp.Finish()
				ready.Store(true)
				log.Printf("signatures updated: %d entries, version %d", newSet.Len(), newSet.Version)
			})
			log.Printf("signature watch ended: %v", err)
		}()
	}

	go func() {
		ticker := time.NewTicker(time.Minute)
		for range ticker.C {
			allowed, blocked := proxy.Stats()
			m := eng.Metrics()
			line := fmt.Sprintf("stats: %d allowed, %d blocked; engine v%d sigs=%d reloads=%d vetted=%d matched=%d",
				allowed, blocked, m.Version, m.Signatures, m.Reloads, m.SyncVetted, m.SyncMatched)
			if fwd != nil {
				sent, dropped := fwd.stats()
				line += fmt.Sprintf("; learn fwd=%d dropped=%d", sent, dropped)
			}
			log.Print(line)
		}
	}()

	hs := &http.Server{Addr: *addr, Handler: proxy}
	ctx, sigStop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer sigStop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	sigStop()
	log.Printf("shutting down: draining proxied requests")
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	hs.Shutdown(sctx)
	cancel()
	watchStop()
	if fwd != nil {
		// Ship whatever misses are still buffered before the learner
		// loses them.
		fwd.close()
	}
	eng.Close()
	// Deferred shipper.Close flushes pending event batches.
}

// missForwarder batches unmatched packets and ships them to a siggend
// /observe intake. The offer path is one non-blocking channel send, so a
// slow or absent learner never adds latency to proxied requests; the
// shipping side carries its own HTTP timeout so a hung learner costs one
// failed batch, never a wedged forwarder.
type missForwarder struct {
	ch      chan *httpmodel.Packet
	url     string
	token   string
	hc      *http.Client
	br      *resilience.Breaker
	tracer  *trace.Tracer
	flight  *trace.Flight
	sent    atomic.Int64
	dropped atomic.Int64
	shed    atomic.Int64
	stop    chan struct{}
	done    chan struct{}
}

// forwarderBatch bounds one POST; forwarderLinger bounds how long a
// partial batch waits before shipping anyway; forwarderTimeout bounds
// one POST round trip.
const (
	forwarderBatch   = 64
	forwarderLinger  = 500 * time.Millisecond
	forwarderTimeout = 10 * time.Second
)

func newMissForwarder(base, token string, hc *http.Client, tracer *trace.Tracer, flight *trace.Flight) *missForwarder {
	if hc == nil {
		hc = &http.Client{Timeout: forwarderTimeout}
	} else if hc.Timeout == 0 {
		hc.Timeout = forwarderTimeout
	}
	f := &missForwarder{
		ch:     make(chan *httpmodel.Packet, 1024),
		url:    base + "/observe",
		token:  token,
		hc:     hc,
		br:     resilience.NewBreaker(resilience.BreakerConfig{}),
		tracer: tracer,
		flight: flight,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go f.run()
	return f
}

// close drains whatever is already buffered into a final batch, ships it
// once, and stops the forwarder goroutine. Safe to call once.
func (f *missForwarder) close() {
	close(f.stop)
	<-f.done
}

func (f *missForwarder) offer(p *httpmodel.Packet) {
	// Tag sampled misses with an ID only — the proxy vets inline, so
	// there are no local stage timestamps worth a span; the learner
	// adopts the ID and the stages it stamps downstream carry it through
	// to the published set's provenance.
	if p.Trace == "" {
		p.Trace = f.tracer.StartID()
	}
	select {
	case f.ch <- p:
	default:
		f.dropped.Add(1)
		f.flight.RecordDrop(-1, p.Trace)
	}
}

func (f *missForwarder) stats() (sent, dropped int64) {
	return f.sent.Load(), f.dropped.Load()
}

func (f *missForwarder) run() {
	defer close(f.done)
	t := time.NewTicker(forwarderLinger)
	defer t.Stop()
	batch := make([]*httpmodel.Packet, 0, forwarderBatch)
	ship := func() {
		if len(batch) == 0 {
			return
		}
		if !f.br.Allow() {
			// Learner known-dead: shed the batch without dialing so the
			// forwarder goroutine never queues behind connect timeouts.
			f.dropped.Add(int64(len(batch)))
			f.shed.Add(int64(len(batch)))
			batch = batch[:0]
			return
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, p := range batch {
			enc.Encode(p)
		}
		req, err := http.NewRequest(http.MethodPost, f.url, &buf)
		if err != nil {
			log.Printf("learn forward: %v", err)
			f.dropped.Add(int64(len(batch)))
			batch = batch[:0]
			return
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		if f.token != "" {
			req.Header.Set("Authorization", "Bearer "+f.token)
		}
		resp, err := f.hc.Do(req)
		switch {
		case err != nil:
			log.Printf("learn forward: %v", err)
			f.dropped.Add(int64(len(batch)))
			f.br.Record(err)
		default:
			// Drain before closing so the connection returns to the
			// keep-alive pool instead of being torn down per batch.
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			if resp.StatusCode >= 300 {
				log.Printf("learn forward: %s", resp.Status)
				f.dropped.Add(int64(len(batch)))
			} else {
				f.sent.Add(int64(len(batch)))
			}
			// Any HTTP status means the learner answered; only transport
			// failures push the breaker toward open.
			f.br.Record(nil)
		}
		batch = batch[:0]
	}
	for {
		select {
		case p := <-f.ch:
			batch = append(batch, p)
			if len(batch) >= forwarderBatch {
				ship()
			}
		case <-t.C:
			ship()
		case <-f.stop:
			// Final flush: drain what is already buffered, ship, exit.
			for {
				select {
				case p := <-f.ch:
					batch = append(batch, p)
					if len(batch) >= forwarderBatch {
						ship()
					}
					continue
				default:
				}
				break
			}
			ship()
			return
		}
	}
}

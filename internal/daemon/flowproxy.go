package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"leaksig/internal/engine"
	"leaksig/internal/flowcontrol"
	"leaksig/internal/httpmodel"
	"leaksig/internal/obs"
	"leaksig/internal/obs/trace"
	"leaksig/internal/resilience"
	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
)

// Flowproxy configures the on-device flow-control proxy; each field is
// the cmd/flowproxy flag its comment names, where the defaults and the
// help text live.
type Flowproxy struct {
	Addr       string        // -addr
	Sigs       string        // -sigs
	Server     string        // -server
	Refresh    time.Duration // -refresh
	Policy     string        // -policy
	Learn      string        // -learn
	LearnToken string        // -learn-token

	EventsURL   string // -events-url
	EventsToken string // -events-token
	DebugAddr   string // -debug-addr
	Faults      string // -faults

	TraceSample int // -trace-sample
}

// Run is the proxy: it vets every request arriving on Addr until ctx is
// cancelled, then drains proxied requests and ships the misses still
// buffered for the learner.
func (c Flowproxy) Run(ctx context.Context, _ io.Reader, stdout io.Writer) error {
	var pol flowcontrol.Policy
	switch c.Policy {
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
		return fmt.Errorf("unknown policy %q", c.Policy)
	}

	ops, err := newOps(opsConfig{
		node: "flowproxy", eventsURL: c.EventsURL, eventsToken: c.EventsToken, debugAddr: c.DebugAddr,
		packetPath: true, faults: c.Faults, traceSample: c.TraceSample, flightShards: 1,
	})
	if err != nil {
		return err
	}
	defer ops.close()

	// Readiness: with static signatures (or none) the proxy can vet as
	// soon as it listens; with -server it is not ready until the first
	// watch callback lands a set, since before that it would enforce
	// nothing the fleet has agreed on.
	ops.ready.Store(c.Server == "")

	set := &signature.Set{}
	if c.Sigs != "" {
		if set, err = signature.ReadFile(c.Sigs); err != nil {
			return err
		}
	}

	if ops.shipper != nil {
		// Every decision on a matching request is an ops-plane event —
		// blocked exfiltration and policy-allowed leaks alike. The wrap
		// costs one closure call on the vet path; shipping never blocks.
		inner := pol
		pol = flowcontrol.PolicyFunc(func(p *httpmodel.Packet, matched []int) flowcontrol.Action {
			action := inner.Decide(p, matched)
			if len(matched) > 0 {
				ops.shipper.Ship(obs.Event{
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
	eng := engine.New(set, engine.Config{Shards: 1, Flight: ops.flight})
	defer eng.Close()
	var be flowcontrol.Backend = eng
	learnStats := func() (sent, dropped int64) { return 0, 0 }
	if c.Learn != "" {
		fwd := newMissForwarder(c.Learn, c.LearnToken, ops.client(), ops.tracer, ops.flight)
		// Ships whatever misses are still buffered before the learner
		// loses them; deferred after the engine, so it runs first.
		defer fwd.close()
		be = flowcontrol.NewObservedBackend(eng, fwd.offer)
		learnStats = fwd.stats
		ops.reg.Register(obs.BreakerCollector("learn_forward", fwd.br))
		ops.reg.Register(obs.CollectorFunc(func(m *obs.MetricWriter) {
			sent, dropped := fwd.stats()
			m.Counter("leaksig_proxy_learn_forwarded_total", "Unmatched flows delivered to the siggend intake.", float64(sent))
			m.Counter("leaksig_proxy_learn_dropped_total", "Unmatched flows dropped before the siggend intake (full buffer or failed POST).", float64(dropped))
		}))
	}
	proxy := flowcontrol.NewProxyWith(be, pol, nil)
	fmt.Fprintf(stdout, "flow control proxy on %s with %d signatures (policy: %s)\n",
		c.Addr, set.Len(), c.Policy)

	ops.reg.Register(obs.EngineCollector(eng.Metrics, eng.ShardStats))
	ops.reg.Register(obs.ProxyCollector(proxy.Stats))
	if ops.debug != nil {
		// The main address proxies every verb and path, so the ops plane
		// lives on the debug listener rather than stealing a URL from
		// proxied traffic.
		mux := http.NewServeMux()
		mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
			allowed, blocked := proxy.Stats()
			sent, dropped := learnStats()
			obs.WriteJSON(w, struct {
				Allowed      int64           `json:"allowed"`
				Blocked      int64           `json:"blocked"`
				LearnSent    int64           `json:"learn_sent"`
				LearnDropped int64           `json:"learn_dropped"`
				Engine       engine.Snapshot `json:"engine"`
			}{allowed, blocked, sent, dropped, eng.Metrics()})
		})
		mux.Handle("GET /readyz", ops.readyz("no signature set loaded yet"))
		mux.Handle("/", ops.debug.Handler)
		ops.debug.Handler = mux
	}

	bg := newBackground()
	defer bg.stop()
	if c.Server != "" {
		client := sigserver.NewClient(c.Server, ops.client())
		bg.run(func(ctx context.Context) {
			// Watch long-polls the server's /wait endpoint, so updates
			// land within one round trip; -refresh only bounds the retry
			// and fallback cadence.
			watchEnded(ctx, client.Watch(ctx, c.Refresh, func(set *signature.Set) {
				ops.applyReload(set, eng.Reload)
				ops.ready.Store(true)
				log.Printf("signatures updated: %d entries, version %d", set.Len(), set.Version)
			}))
		})
	}
	bg.every(time.Minute, func() {
		allowed, blocked := proxy.Stats()
		m := eng.Metrics()
		line := fmt.Sprintf("stats: %d allowed, %d blocked; engine v%d sigs=%d reloads=%d vetted=%d matched=%d",
			allowed, blocked, m.Version, m.Signatures, m.Reloads, m.SyncVetted, m.SyncMatched)
		if c.Learn != "" {
			sent, dropped := learnStats()
			line += fmt.Sprintf("; learn fwd=%d dropped=%d", sent, dropped)
		}
		log.Print(line)
	})

	return ops.serve(ctx, "draining proxied requests", &http.Server{Addr: c.Addr, Handler: proxy}, nil)
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

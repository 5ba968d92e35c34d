// Package daemon is the chassis the four long-running binaries share:
// sigserver, siggend, leakstream and flowproxy are each one config
// struct, filled from flags by a cmd/ main, and one Run method here. What
// every daemon does the same way is written once in this file — the ops
// plane (metrics registry, chaos injector, event and learn shippers,
// tracer, flight recorder, debug listener, readiness), the NDJSON packet
// intake, and the serve-until-cancelled-then-drain loop — so a test, or
// a simulation of the whole loop, constructs the daemon that ships
// rather than a transcription of its wiring. The ops plane's settings
// are one struct, Ops, embedded in every config; Ops.RegisterFlags
// declares its flags for all four mains.
//
// Shutdown runs against the data flow, the same in all four: stop the
// listeners (in-flight requests get five seconds), stop the signature
// watch and the tickers, drain what was accepted (engine rings, whose
// misses reach the learn shipper), run siggend's final epoch, then the
// deferred closes write siggend's checkpoint, sync the journal and
// flush the learn and event shippers.
package daemon

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"leaksig/internal/engine"
	"leaksig/internal/faultinject"
	"leaksig/internal/httpmodel"
	"leaksig/internal/obs"
	"leaksig/internal/obs/trace"
	"leaksig/internal/signature"
)

// Main is a daemon's func main after flag.Parse: it prefixes the log
// with the daemon's name, runs run on the process's stdin and stdout
// under a context that SIGINT or SIGTERM cancels, and exits non-zero
// with run's error. After the first signal the default disposition is
// back, so a second one kills a drain that hangs.
func Main(name string, run func(ctx context.Context, stdin io.Reader, stdout io.Writer) error) {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	if err := run(ctx, os.Stdin, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// Ops is the operator's side of a daemon's config, embedded in all
// four: where events ship, the private debug listener, and, on the
// packet path, the chaos spec, the trace sampling and the learner the
// misses go to. RegisterFlags registers the fields a daemon takes as its
// flags; a field its daemon does not take is ignored.
type Ops struct {
	EventsURL   string // -events-url
	EventsToken string // -events-token
	DebugAddr   string // -debug-addr
	Faults      string // -faults: siggend, leakstream, flowproxy
	TraceSample int    // -trace-sample: siggend, leakstream, flowproxy
	Learn       string // -learn: leakstream, flowproxy
	LearnToken  string // -learn-token: leakstream, flowproxy
}

// opsTier is how much of the ops plane a daemon takes. Every daemon
// ships events and opens a debug listener. The three on the packet path
// also get a chaos injector under every outbound client, a tracer and a
// flight recorder; sigserver only answers requests. The two that see
// misses can ship them to a learner.
type opsTier int

const (
	tierEvents     opsTier = iota // sigserver
	tierPacketPath                // siggend
	tierLearner                   // leakstream, flowproxy
)

// opsTiers is the one place that decides which ops flags a daemon takes,
// read by both RegisterFlags and newOps.
var opsTiers = map[string]opsTier{
	"sigserver": tierEvents, "siggend": tierPacketPath, "leakstream": tierLearner, "flowproxy": tierLearner,
}

// RegisterFlags registers on fs, into o, the ops flags the named daemon
// takes. Each flag has one usage string, true for every daemon that
// takes it.
func (o *Ops) RegisterFlags(fs *flag.FlagSet, daemon string) {
	fs.StringVar(&o.EventsURL, "events-url", "", "ship structured events as batched NDJSON POSTs to this endpoint")
	fs.StringVar(&o.EventsToken, "events-token", "", "bearer token for -events-url uploads")
	fs.StringVar(&o.DebugAddr, "debug-addr", "", "private ops listener: /metrics, /healthz, /debug/flight, /debug/pprof")
	tier := opsTiers[daemon]
	if tier >= tierPacketPath {
		fs.StringVar(&o.Faults, "faults", "", `chaos injection spec for outbound HTTP, e.g. "seed=7,reset=0.1,latency_p=0.1,latency=20ms" (empty: read LEAKSIG_FAULTS)`)
		fs.IntVar(&o.TraceSample, "trace-sample", 0, "start a trace for 1 in N packets that arrive without one (flowproxy: 1 in N misses forwarded to -learn); an arriving trace ID is always adopted (0: adopt only)")
	}
	if tier >= tierLearner {
		fs.StringVar(&o.Learn, "learn", "", "siggend base URL; unmatched flows are forwarded to its /observe intake")
		fs.StringVar(&o.LearnToken, "learn-token", "", "bearer token for the siggend /observe intake")
	}
}

// opsPlane is the operator's side of a daemon. shipper, learn, inj and
// debug are nil when their flag is unset; tracer and flight are nil off
// the packet path, which every method of theirs tolerates.
type opsPlane struct {
	node    string
	reg     *obs.Registry
	inj     *faultinject.Injector
	shipper *obs.Shipper[obs.Event]
	learn   *obs.Shipper[*httpmodel.Packet]
	tracer  *trace.Tracer
	flight  *trace.Flight
	debug   *http.Server

	// ready latches once the daemon has something to enforce or serve;
	// degraded is raised while that something came from a cache because
	// the signature server is unreachable.
	ready, degraded atomic.Bool
}

// newOps brings the ops plane up for the named daemon, with the fields
// of o its tier takes; flightShards sizes the flight recorder. The
// caller defers close.
func newOps(node string, o Ops, flightShards int) (*opsPlane, error) {
	p := &opsPlane{node: node, reg: obs.NewRegistry()}
	p.reg.Register(obs.BuildInfoCollector())
	tier := opsTiers[node]
	if tier >= tierPacketPath {
		inj, err := faultinject.FromFlag(o.Faults)
		if err != nil {
			return nil, err
		}
		if inj != nil {
			log.Printf("chaos: %s", inj)
			p.reg.Register(obs.FaultCollector(inj))
		}
		p.inj = inj
		if tier >= tierLearner && o.Learn != "" {
			if err := p.startLearn(o.Learn, o.LearnToken); err != nil {
				return nil, err
			}
		}
		// The tracer is always constructed — at sample 0 it starts nothing
		// but still adopts upstream trace IDs — and the flight recorder is
		// always on.
		p.tracer = trace.NewTracer(o.TraceSample)
		p.flight = trace.NewFlight(flightShards, 0)
		p.reg.Register(obs.TracerCollector(p.tracer))
		p.reg.Register(obs.FlightCollector(p.flight))
	}
	if o.EventsURL != "" {
		p.shipper = obs.NewShipper[obs.Event](obs.ShipperConfig{
			URL: o.EventsURL, Token: o.EventsToken, HTTPClient: p.client(),
		})
		p.reg.Register(obs.ShipperCollector("events", p.shipper))
		if p.flight != nil {
			// The flight recorder's trigger conditions ship as events.
			p.flight.SetTrigger(func(reason string, ev trace.FlightEvent) {
				st := p.flight.Stats()
				p.ship(obs.Event{
					Type:  "flight",
					Trace: ev.Trace,
					Detail: fmt.Sprintf("reason=%s kind=%s shard=%d value=%d held=%d recorded=%d",
						reason, ev.Kind, ev.Shard, ev.Value, st.Held, st.Recorded),
				})
			})
		}
	}
	if o.DebugAddr != "" {
		p.debug = &http.Server{Addr: o.DebugAddr, Handler: obs.DebugHandler(p.reg, p.flight)}
	}
	return p, nil
}

// startLearn opens the one way from a packet-path daemon to the
// learner at base, siggend's base URL: every miss the daemon ships
// leaves as one NDJSON line of a batch POSTed to base/observe through an
// obs.Shipper, so the daemon never waits on the learner, a full buffer
// drops and counts, and a failed POST retries with backoff. It reports
// under the event shipper's leaksig_shipper_* families as stream "learn".
//
// base must be an absolute http(s) URL, and nothing starts if it is
// not: the flag package takes the next argument as a string flag's
// value, so a script written for a bool -learn ("-learn -pool") would
// otherwise ship every miss to "-pool/observe".
func (p *opsPlane) startLearn(base, token string) error {
	u, err := url.Parse(base)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("-learn %q is not an absolute http(s) URL (want siggend's base URL, e.g. http://127.0.0.1:8810)", base)
	}
	p.learn = obs.NewShipper[*httpmodel.Packet](obs.ShipperConfig{
		URL: u.JoinPath("observe").String(), Token: token, HTTPClient: p.client(),
	})
	p.reg.Register(obs.ShipperCollector("learn", p.learn))
	return nil
}

// missSink is the engine sink that ships every verdict matching nothing
// (exactly the traffic the live set cannot explain) to the learner, or
// nil without -learn. It keeps the packet, never the borrowed verdict;
// the shipper encodes the packet later, so nothing may change it after.
// A miss the full buffer drops is counted only by the shipper
// (leaksig_shipper_dropped_total{stream="learn"}): it is not an engine drop, so it
// stays out of the flight recorder's drop-burst detector.
func (p *opsPlane) missSink() engine.Sink {
	if p.learn == nil {
		return nil
	}
	return engine.BatchCallbackSink(func(vs []engine.Verdict) {
		for _, v := range vs {
			if !v.Leak() {
				p.learn.Ship(v.Packet)
			}
		}
	})
}

// close makes the shippers' final delivery passes, misses first;
// deferred first, so it runs after everything that ships, the engines'
// drain included.
func (p *opsPlane) close() {
	if p.learn != nil {
		p.learn.Close()
		sent, dropped, failed := p.learn.Counts()
		log.Printf("learn: %d misses delivered to siggend, %d dropped, %d failed POSTs", sent, dropped, failed)
	}
	if p.shipper != nil {
		p.shipper.Close()
	}
}

// client is the HTTP client for one outbound dependency, with the chaos
// injector underneath when one is configured (nil: the default client).
func (p *opsPlane) client() *http.Client { return p.inj.Client(nil) }

// ship sends one event when -events-url is set, stamped with the time
// and the daemon's name. It never blocks.
func (p *opsPlane) ship(ev obs.Event) {
	if p.shipper == nil {
		return
	}
	ev.Time, ev.Node = time.Now().UTC(), p.node
	p.shipper.Ship(ev)
}

// setLabel names a signature set in a log line.
func setLabel(name string) string {
	if name == "" {
		return "default set"
	}
	return fmt.Sprintf("set %q", name)
}

// applyReload rolls one delivered set in under its provenance trace: a
// span adopted from the set records the apply stage, closing in this
// process the loop of the trace that seeded the set.
func (p *opsPlane) applyReload(set *signature.Set, apply func(*signature.Set)) {
	sp := p.tracer.Adopt(set.FirstTrace())
	start := time.Now()
	apply(set)
	p.tracer.Observe(trace.StageReloadApply, time.Since(start))
	sp.Stamp(trace.StageReloadApply)
	sp.Finish()
}

// mount puts the three endpoints every traffic mux owes its balancer
// and scraper on mux; notReady is /readyz's 503 body.
func (p *opsPlane) mount(mux *http.ServeMux, notReady string) {
	mux.Handle("GET /metrics", p.reg.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
	mux.Handle("GET /readyz", p.readyz(notReady))
}

// readyz is distinct from /healthz on purpose: the process is alive the
// moment it serves, but routing traffic to it before it has a signature
// set (or, for the learner, a publish) would be routing it to nothing.
// A degraded daemon still answers 200 — cached signatures are real
// signatures — and the body says which mode this is.
func (p *opsPlane) readyz(notReady string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case !p.ready.Load():
			http.Error(w, notReady, http.StatusServiceUnavailable)
		case p.degraded.Load():
			io.WriteString(w, "ready-degraded")
		default:
			io.WriteString(w, "ready")
		}
	})
}

// serve is a daemon's main loop. It runs hs (nil in pipe mode) and the
// -debug-addr listener, and consumes stdin (nil for daemons that read
// none) off this goroutine, so that cancellation is answered even while
// a read blocks. It returns when ctx is cancelled, when a listener
// fails (the error), or — in pipe mode only, where stdin is the packet
// source — at stdin's end; with a listener, stdin typically hits EOF at
// once and the run goes on. In-flight requests then get five seconds.
func (p *opsPlane) serve(ctx context.Context, draining string, hs *http.Server, stdin func()) error {
	var servers []*http.Server
	if hs != nil {
		servers = append(servers, hs)
	}
	if p.debug != nil {
		log.Printf("debug listener on %s (/metrics, /healthz, /debug/flight, /debug/pprof)", p.debug.Addr)
		servers = append(servers, p.debug)
	}
	failed := make(chan error, len(servers))
	for _, s := range servers {
		go func() { failed <- s.ListenAndServe() }()
	}
	var eof chan struct{}
	if stdin != nil {
		done := make(chan struct{})
		go func() {
			defer close(done)
			stdin()
		}()
		if hs == nil {
			eof = done
		}
	}
	var err error
	select {
	case err = <-failed:
	case <-eof:
	case <-ctx.Done():
		log.Printf("shutting down: %s", draining)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range servers {
		if err := s.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("shutdown: %v", err)
		}
	}
	return err
}

// background owns a daemon's helper goroutines — the signature watch
// and the tickers — so that none outlives Run.
type background struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func newBackground() *background {
	b := &background{}
	b.ctx, b.cancel = context.WithCancel(context.Background())
	return b
}

// run starts fn, which must return once its context is cancelled.
func (b *background) run(fn func(ctx context.Context)) {
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		fn(b.ctx)
	}()
}

// every calls fn once per interval.
func (b *background) every(interval time.Duration, fn func()) {
	b.run(func(ctx context.Context) {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				fn()
			}
		}
	})
}

// stop cancels the goroutines and waits for them. Safe to call twice.
func (b *background) stop() {
	b.cancel()
	b.wg.Wait()
}

// watchEnded logs a signature watch that gave up on its own; one ended
// by shutdown is not news.
func watchEnded(ctx context.Context, err error) {
	if err != nil && ctx.Err() == nil {
		log.Printf("signature watch ended: %v", err)
	}
}

// intake runs one packet stream (stdin, an /ingest or /observe body)
// through the shared NDJSON intake, which brings its own pooled scanner
// buffer, and logs every line rejected by number and class — never by
// content.
func intake(r io.Reader, accept func(*httpmodel.Packet) error) (accepted, rejected int) {
	accepted, rejected, err := httpmodel.ReadNDJSON(r, accept, func(line int, err error) {
		log.Printf("skipping line %d: %v", line, err)
	})
	if err != nil {
		log.Printf("reading packets: %v", err)
	}
	return accepted, rejected
}

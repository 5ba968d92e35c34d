// Package daemon is the chassis the four long-running binaries share:
// sigserver, siggend, leakstream and flowproxy are each one config
// struct, filled from flags by a cmd/ main, and one Run method here. What
// every daemon does the same way is written once in this file — the ops
// plane (metrics registry, chaos injector, event shipper, tracer, flight
// recorder, debug listener, readiness), the NDJSON packet intake, and
// the serve-until-cancelled-then-drain loop — so a test, or a simulation
// of the whole loop, constructs the daemon that ships rather than a
// transcription of its wiring.
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

// opsConfig is what one daemon asks of the shared ops plane.
type opsConfig struct {
	node        string // the daemon's name: every event's node label
	eventsURL   string
	eventsToken string
	debugAddr   string
	// The three daemons on the packet path also get a chaos injector under
	// every outbound client, a tracer and a flight recorder. sigserver
	// only answers requests and leaves packetPath false.
	packetPath   bool
	faults       string
	traceSample  int
	flightShards int
	// learnURL is -learn, siggend's base URL, on the two daemons that
	// ship their misses to it; learnToken is -learn-token, the bearer
	// token of its POST /observe.
	learnURL   string
	learnToken string
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

// newOps brings the ops plane up. The caller defers close.
func newOps(c opsConfig) (*opsPlane, error) {
	p := &opsPlane{node: c.node, reg: obs.NewRegistry()}
	p.reg.Register(obs.BuildInfoCollector())
	if c.packetPath {
		inj, err := faultinject.FromFlag(c.faults)
		if err != nil {
			return nil, err
		}
		if inj != nil {
			log.Printf("chaos: %s", inj)
			p.reg.Register(obs.FaultCollector(inj))
		}
		p.inj = inj
		if c.learnURL != "" {
			if err := p.startLearn(c.learnURL, c.learnToken); err != nil {
				return nil, err
			}
		}
		// The tracer is always constructed — at sample 0 it starts nothing
		// but still adopts upstream trace IDs — and the flight recorder is
		// always on.
		p.tracer = trace.NewTracer(c.traceSample)
		p.flight = trace.NewFlight(c.flightShards, 0)
		p.reg.Register(obs.TracerCollector(p.tracer))
		p.reg.Register(obs.FlightCollector(p.flight))
	}
	if c.eventsURL != "" {
		p.shipper = obs.NewShipper[obs.Event](obs.ShipperConfig{
			URL: c.eventsURL, Token: c.eventsToken, HTTPClient: p.client(),
		})
		p.reg.Register(p.shipper)
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
	if c.debugAddr != "" {
		p.debug = &http.Server{Addr: c.debugAddr, Handler: obs.DebugHandler(p.reg, p.flight)}
	}
	return p, nil
}

// startLearn opens the one way from a packet-path daemon to the
// learner at base, siggend's base URL: every miss the daemon ships
// leaves as one NDJSON line of a batch POSTed to base/observe through an
// obs.Shipper, so the daemon never waits on the learner, a full buffer
// drops and counts, and a failed POST retries with backoff. leakstream
// and flowproxy both report it under the leaksig_proxy_learn_* families.
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
	p.reg.Register(obs.CollectorFunc(func(m *obs.MetricWriter) {
		sent, dropped, failed := p.learn.Counts()
		m.Counter("leaksig_proxy_learn_forwarded_total", "Misses delivered to the siggend intake.", float64(sent))
		m.Counter("leaksig_proxy_learn_dropped_total", "Misses dropped before the siggend intake (full buffer or abandoned POST).", float64(dropped))
		m.Counter("leaksig_proxy_learn_upload_failures_total", "Failed POSTs to the siggend intake; each attempt of a retried batch counts once.", float64(failed))
	}))
	return nil
}

// missSink is the engine sink that ships every verdict matching nothing
// (exactly the traffic the live set cannot explain) to the learner, or
// nil without -learn. It keeps the packet, never the borrowed verdict;
// the shipper encodes the packet later, so nothing may change it after.
// A miss the full buffer drops is counted only by the shipper
// (leaksig_proxy_learn_dropped_total): it is not an engine drop, so it
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

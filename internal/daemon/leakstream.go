package daemon

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"leaksig/internal/durable"
	"leaksig/internal/engine"
	"leaksig/internal/httpmodel"
	"leaksig/internal/obs"
	"leaksig/internal/obs/trace"
	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
)

// Leakstream configures the streaming detection daemon; each field is
// the cmd/leakstream flag its comment names, where the defaults and the
// help text live. It takes every field of Ops.
type Leakstream struct {
	Server   string        // -server
	Sigs     string        // -sigs
	SigCache string        // -sig-cache
	Listen   string        // -listen
	Shards   int           // -shards
	Queue    int           // -queue
	Poll     time.Duration // -poll
	Stats    time.Duration // -stats
	Affinity string        // -affinity

	Pool        bool          // -pool
	TenantBy    string        // -tenant-by
	Idle        time.Duration // -idle
	ShardBudget int           // -shard-budget
	MaxTenants  int           // -max-tenants

	TenantRate  float64       // -tenant-rate
	TenantBurst float64       // -tenant-burst
	RatePolicy  string        // -rate-policy
	P99Breach   time.Duration // -p99-breach

	Ops
}

// Run is the daemon: packets in from stdin and, with Listen, over HTTP;
// verdict lines out on stdout. Without Listen it returns at stdin EOF
// (pipe mode); with it, when ctx is cancelled. Either way everything
// accepted is drained into a verdict before it returns — and, with
// Learn, every miss among them into the learn shipper's final pass.
//
// With Learn set, every packet that matches no signature is shipped to
// Learn's POST /observe, the siggend intake, exactly as flowproxy ships
// its unmatched requests; siggend keys them by its own -tenant-by, so a
// stream-level tenant override does not reach the learner.
func (c Leakstream) Run(ctx context.Context, stdin io.Reader, stdout io.Writer) error {
	var aff engine.Affinity
	switch c.Affinity {
	case "host":
		aff = engine.AffinityHost
	case "none":
		aff = engine.AffinityNone
	default:
		return fmt.Errorf("unknown affinity %q (want host or none)", c.Affinity)
	}
	if c.TenantBy != "app" && c.TenantBy != "host" {
		return fmt.Errorf("unknown -tenant-by %q (want app or host)", c.TenantBy)
	}
	if c.RatePolicy != "drop" && c.RatePolicy != "reject" {
		return fmt.Errorf("unknown -rate-policy %q (want drop or reject)", c.RatePolicy)
	}

	ops, err := newOps("leakstream", c.Ops, engine.Config{Shards: c.Shards}.ShardCount())
	if err != nil {
		return err
	}
	defer ops.close()
	// The intake limiter is always on — pass-through below any
	// -tenant-rate — so per-tenant intake accounting exists even without
	// enforcement.
	limiter := obs.NewRateLimiter(obs.RateLimiterConfig{Rate: c.TenantRate, Burst: c.TenantBurst})
	ops.reg.Register(limiter)
	ops.reg.Register(obs.CollectorFunc(func(m *obs.MetricWriter) {
		var v float64
		if ops.degraded.Load() {
			v = 1
		}
		m.Gauge("leaksig_degraded", "1 while serving cached signatures because the signature server is unreachable.", v)
	}))

	set := &signature.Set{}
	if c.Sigs != "" {
		if set, err = signature.ReadFile(c.Sigs); err != nil {
			return err
		}
	}

	out := newVerdictWriter(stdout)
	// The miss sink (nil without -learn) is the engine's own sink, so the
	// pool tees it under every tenant's verdict sink.
	cfg := engine.Config{
		Shards:     c.Shards,
		QueueDepth: c.Queue,
		Affinity:   aff,
		Flight:     ops.flight,
		Sink:       ops.missSink(),
	}

	// The daemon fronts either one engine or a pool of them; backend
	// abstracts the difference for ingest, reload, and stats.
	var be backend
	if c.Pool {
		pb := newPoolBackend(set, engine.PoolConfig{
			Engine:      cfg,
			ShardBudget: c.ShardBudget,
			MaxTenants:  c.MaxTenants,
			IdleAfter:   c.Idle,
			TenantSink:  func(key string) engine.Sink { return out.sink(key, ops) },
		}, c.TenantBy)
		ops.reg.Register(obs.PoolCollector(pb.pool.Metrics))
		be = pb
	} else {
		cfg.Sink = engine.TeeSink(out.sink("", ops), cfg.Sink)
		eb := &engineBackend{eng: engine.New(set, cfg)}
		ops.reg.Register(obs.EngineCollector(eb.eng.Metrics, eb.eng.ShardStats))
		be = eb
	}
	defer be.close()

	// The last-known-good cache: boot serving whatever the previous run
	// saw published, so a dead sigserver degrades this daemon instead of
	// blanking it. The watch below overwrites both the engines and the
	// cache the moment the server answers. Its Close is deferred before
	// bg.stop, so it runs after the watch has ended: no delivery reaches
	// a closed cache.
	var cache *durable.SetCache
	if c.SigCache != "" {
		var loaded bool
		if cache, loaded, err = durable.OpenSetCache(c.SigCache); err != nil {
			return fmt.Errorf("opening -sig-cache: %v", err)
		}
		defer cache.Close()
		if !loaded {
			log.Printf("sig-cache %s: empty (first run, or no intact record); nothing to serve until the server answers", c.SigCache)
		}
	}
	bg := newBackground()
	defer bg.stop()
	bg.every(verdictFlushInterval, out.flush)
	s := &stream{
		ops:     ops,
		be:      be,
		limiter: limiter,
		keyFn:   tenantKeyFn(c.TenantBy),
		reject:  c.RatePolicy == "reject",
	}

	if c.Server == "" {
		// No server to wait on: whatever -sigs loaded is all the
		// signatures this process will ever have, so it is as ready now as
		// it will ever be.
		ops.ready.Store(true)
	}

	if cache != nil && c.Server != "" {
		s.bootFromCache(cache, c.SigCache)
	}

	if c.Server != "" {
		// deliver is the watch callback: persist the set, leave degraded
		// mode if this is the first server contact since boot, and roll
		// the set in. install returns once the set is live, so readiness,
		// the log line and the shipped reload event (with its
		// issued-vs-applied ticket accounting) all describe a live set.
		// Publishes that land meanwhile coalesce: the watcher fetches
		// only the newest set once deliver returns.
		deliver := func(name string, set *signature.Set) {
			if cache != nil {
				if err := cache.Put(name, set); err != nil {
					log.Printf("sig-cache write: %v", err)
				}
			}
			if ops.degraded.CompareAndSwap(true, false) {
				log.Printf("sigserver reachable again: leaving degraded mode")
				ops.ship(obs.Event{Type: "degraded", Version: set.Version, Set: name, Detail: "recovered: live set delivered"})
			}
			ops.applyReload(set, func(set *signature.Set) { be.install(name, set) })
			ops.ready.Store(true)
			log.Printf("%s installed: version %d, %d entries", setLabel(name), set.Version, set.Len())
			ops.ship(obs.Event{
				Type: "reload", Set: name, Version: set.Version,
				Trace: set.FirstTrace(), Detail: reloadOutcome(be),
			})
		}
		client := sigserver.NewClient(c.Server, ops.client())
		bg.run(func(ctx context.Context) {
			var err error
			if c.Pool {
				// Pool mode follows the server's whole set catalog: the
				// default set rolls unpinned tenants, each named set pins its
				// tenant — the HTTP route for per-tenant learned signatures.
				err = client.WatchSets(ctx, c.Poll, deliver)
			} else {
				err = client.Watch(ctx, c.Poll, func(set *signature.Set) { deliver("", set) })
			}
			watchEnded(ctx, err)
		})
	}

	if c.P99Breach > 0 {
		// The p99 watchdog: one of the flight recorder's three trigger
		// conditions (with drop bursts and sink stalls, detected in the
		// engine itself).
		bg.every(5*time.Second, func() {
			if p99 := aggregate(be).P99; p99 > c.P99Breach {
				ops.flight.Trigger(trace.KindP99Breach, trace.FlightEvent{
					Kind: trace.KindP99Breach, Shard: -1,
					Value: p99.Nanoseconds(), Detail: "p99 over " + c.P99Breach.String(),
				})
			}
		})
	}
	if c.Stats > 0 {
		bg.every(c.Stats, func() { log.Print(be.statsLine()) })
	}

	var ingest *http.Server
	if c.Listen != "" {
		ingest = &http.Server{Addr: c.Listen, Handler: s.handler()}
		log.Printf("HTTP ingest on %s (/ingest, /match, /stats, /metrics, /healthz, /readyz)", c.Listen)
	}
	err = ops.serve(ctx, "draining intake and engine rings", ingest, func() {
		accepted, rejected := intake(stdin, s.submitter(""))
		log.Printf("stdin done: %d accepted, %d rejected lines", accepted, rejected)
	})
	bg.stop() // end the signature watch, the tickers and the verdict flusher
	// Closing the backend drains every queued packet through the matcher
	// — and, with -learn, through the miss sink — so the learn shipper's
	// final pass (the deferred ops.close) carries the complete stream.
	be.close()
	out.flush()
	if err != nil {
		return err
	}
	log.Print(be.statsLine())
	return nil
}

// stream is the running daemon as its intake paths see it: the backend
// behind the per-tenant intake limiter, and the ops plane.
type stream struct {
	ops     *opsPlane
	be      backend
	limiter *obs.RateLimiter
	keyFn   func(*httpmodel.Packet) string
	reject  bool // -rate-policy reject (vs drop)
}

// bootFromCache applies every cached set and, if there was one, raises
// the degraded latch until the watch hears from the server.
func (s *stream) bootFromCache(cache *durable.SetCache, path string) {
	applied := 0
	for _, name := range cache.Names() {
		cached, ok := cache.Get(name)
		if !ok {
			continue
		}
		s.be.install(name, cached)
		applied++
	}
	if applied == 0 {
		return
	}
	s.ops.ready.Store(true)
	s.ops.degraded.Store(true)
	log.Printf("sig-cache %s: serving %d cached set(s) in degraded mode until the server answers", path, applied)
	s.ops.flight.Trigger(trace.KindDegraded, trace.FlightEvent{
		Kind: trace.KindDegraded, Shard: -1, Value: int64(applied),
		Detail: "booted from sig-cache; sigserver not yet confirmed",
	})
	s.ops.ship(obs.Event{Type: "degraded", Detail: fmt.Sprintf("serving %d cached set(s) from %s", applied, path)})
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
	// install rolls in the set delivered under name: the default set ""
	// is what every unpinned tenant runs, a named set pins its tenant (a
	// single-engine backend has no tenants and ignores named sets).
	install(name string, set *signature.Set)
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

// aggregate is the backend's whole-daemon engine snapshot.
func aggregate(be backend) engine.Snapshot {
	snap, _ := be.stats("")
	if m, ok := snap.(engine.PoolSnapshot); ok {
		return m.Aggregate
	}
	m, _ := snap.(engine.Snapshot)
	return m
}

// reloadOutcome summarizes the backend's reload books: tickets issued
// versus the generation actually applied (a gap is a concurrent reload
// still compiling, or one discarded because a newer set won).
func reloadOutcome(be backend) string {
	m := aggregate(be)
	return fmt.Sprintf("issued=%d applied=%d", m.ReloadIssued, m.ReloadGen)
}

// submitter wraps the backend's queueing function with per-tenant intake
// limiting. tenant is the stream-level override; when empty each packet
// is keyed individually, so the limiter sees the same tenancy the pool
// does.
func (s *stream) submitter(tenant string) func(*httpmodel.Packet) error {
	submit := s.be.submitter(tenant)
	return func(p *httpmodel.Packet) error {
		p.BeginTrace(s.ops.tracer)
		key := tenant
		if key == "" {
			key = s.keyFn(p)
		}
		if !s.limiter.Allow(key) {
			// Shed packets are drops like any other: the flight recorder's
			// burst detector turns a shedding storm into a dump trigger.
			s.ops.flight.RecordDrop(-1, p.Trace)
			p.EndTrace() // the limited packet's journey ends here
			if s.reject {
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

// install returns once the set is live, so the stage timing, /readyz
// and the reload log line describe the set matching traffic. It runs on
// the watcher goroutine; a publish burst during the compile coalesces,
// because the watcher fetches only the newest set once install returns.
func (b *engineBackend) install(name string, set *signature.Set) {
	if name == "" {
		b.eng.Reload(set)
	}
}
func (b *engineBackend) statsLine() string { return b.eng.Metrics().String() }
func (b *engineBackend) close()            { b.eng.Close() }

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

// tenantKey is packet p's tenant under a -tenant-by value, the one rule
// leakstream and siggend share: its host for "host", "" (unattributed)
// for siggend's "none", and otherwise its app — or its host when it
// names no app, as flowproxy's packets never do. So siggend learns a
// miss under the tenant whose pool engine missed it, and a named set
// lands on the tenant that produced its misses.
func tenantKey(tenantBy string, p *httpmodel.Packet) string {
	switch {
	case tenantBy == "none":
		return ""
	case tenantBy == "host" || p.App == "":
		return p.Host
	}
	return p.App
}

// tenantKeyFn maps packets to tenant keys per the -tenant-by flag, for
// pool routing and the intake limiter. A packet with neither app nor
// host goes to tenant "default".
func tenantKeyFn(tenantBy string) func(*httpmodel.Packet) string {
	return func(p *httpmodel.Packet) string {
		if key := tenantKey(tenantBy, p); key != "" {
			return key
		}
		return "default"
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

func (b *poolBackend) install(name string, set *signature.Set) {
	if name == "" {
		b.pool.Reload(set)
		return
	}
	b.pool.ReloadTenant(name, set)
}
func (b *poolBackend) close() { b.pool.Close() }

func (b *poolBackend) statsLine() string {
	s := b.pool.Metrics()
	return fmt.Sprintf("pool: tenants=%d created=%d evicted=%d shards=%d/%d in=%d out=%d matched=%d pps=%.0f",
		s.Tenants, s.Created, s.Evicted, s.ShardsInUse, s.ShardBudget,
		s.Aggregate.Ingested, s.Aggregate.Processed, s.Aggregate.Matched,
		s.Aggregate.PacketsPerSec)
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

// appendVerdict appends v's NDJSON line to dst, byte for byte what
// json.Encoder.Encode(v) writes, without reflection or allocation.
func appendVerdict(dst []byte, v *verdictLine) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, v.ID, 10)
	if v.App != "" {
		dst = appendJSONString(append(dst, `,"app":`...), v.App)
	}
	if v.Tenant != "" {
		dst = appendJSONString(append(dst, `,"tenant":`...), v.Tenant)
	}
	dst = appendJSONString(append(dst, `,"host":`...), v.Host)
	dst = strconv.AppendBool(append(dst, `,"leak":`...), v.Leak)
	if len(v.Matched) > 0 {
		dst = append(dst, `,"matched":[`...)
		for i, id := range v.Matched {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(id), 10)
		}
		dst = append(dst, ']')
	}
	dst = strconv.AppendInt(append(dst, `,"version":`...), v.Version, 10)
	if v.LatencyUS != 0 {
		dst = strconv.AppendInt(append(dst, `,"latency_us":`...), v.LatencyUS, 10)
	}
	if v.Trace != "" {
		dst = appendJSONString(append(dst, `,"trace":`...), v.Trace)
	}
	return append(dst, "}\n"...)
}

// appendError appends /match's in-band rejection line, as
// json.Encoder.Encode(map[string]string{"error": msg}) writes it.
func appendError(dst []byte, msg string) []byte {
	return append(appendJSONString(append(dst, `{"error":`...), msg), "}\n"...)
}

// appendJSONString appends s as encoding/json quotes it by default:
// HTML-safe (<, > and & escaped), U+2028 and U+2029 escaped, and each
// byte of invalid UTF-8 replaced by U+FFFD.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
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
// one NDJSON stream. Its owner flushes it on a ticker rather than per
// line, so the engine's batching is not undone by per-packet write(2)
// calls.
type verdictWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	buf []byte // one drain's lines, reused under mu
}

func newVerdictWriter(w io.Writer) *verdictWriter {
	return &verdictWriter{bw: bufio.NewWriter(w)}
}

// sink returns the engine sink of one tenant ("" for the single-engine
// daemon): each drain's verdicts become NDJSON lines and one write under
// one lock, and with -events-url its leaks ship as ops-plane events
// (clean traffic is volume, leaks are signal). The shipper never blocks
// the verdict path — a wedged event consumer costs dropped events, not
// matching throughput — but it keeps events past the call, so a shipped
// event copies the borrowed Matched.
func (vw *verdictWriter) sink(tenant string, ops *opsPlane) engine.Sink {
	return engine.BatchCallbackSink(func(vs []engine.Verdict) {
		vw.mu.Lock()
		buf := vw.buf[:0]
		for _, v := range vs {
			line := toLine(tenant, v)
			buf = appendVerdict(buf, &line)
		}
		vw.bw.Write(buf)
		vw.buf = buf
		vw.mu.Unlock()
		if ops.shipper == nil {
			return
		}
		for _, v := range vs {
			if !v.Leak() {
				continue
			}
			ops.ship(obs.Event{
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

// handler exposes the backend over HTTP, every submit path routed
// through the intake limiter.
func (s *stream) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		accepted, rejected := intake(r.Body, s.submitter(tenantOf(r)))
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"accepted":%d,"rejected":%d}`+"\n", accepted, rejected)
	})
	mux.HandleFunc("POST /match", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		tenant := tenantOf(r)
		// The same intake as /ingest, on the same pooled scanner buffer.
		// A rejected line becomes an in-band NDJSON error and the stream
		// goes on — same skip semantics as /ingest — and the answer is
		// written once, after the body is read.
		var out []byte
		_, _, err := httpmodel.ReadNDJSON(r.Body, func(p *httpmodel.Packet) error {
			v := s.be.match(tenant, p)
			out = appendVerdict(out, &verdictLine{
				ID:      p.ID,
				App:     p.App,
				Tenant:  tenant,
				Host:    p.Host,
				Leak:    v.Leak(),
				Matched: v.Matched,
				Version: v.Version,
			})
			return nil
		}, func(line int, err error) {
			out = appendError(out, fmt.Sprintf("line %d: %v", line, err))
		})
		if err != nil {
			log.Printf("reading packets: %v", err)
		}
		w.Write(out)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		snap, ok := s.be.stats(r.URL.Query().Get("tenant"))
		if !ok {
			http.Error(w, "unknown tenant", http.StatusNotFound)
			return
		}
		obs.WriteJSON(w, snap)
	})
	s.ops.mount(mux, "no signature set yet")
	return mux
}

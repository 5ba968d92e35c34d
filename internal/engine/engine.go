// Package engine is the streaming half of the detection system: a sharded
// worker pool that consumes HTTP packets from bounded lock-free rings and
// matches them against a hot-swappable compiled signature set.
//
// The batch matcher (detect.MatchSetWith) answers "which of these packets
// match" over a fully materialized capture; this package answers the
// deployment question of the paper's Figure 3 — a long-running service
// fed by live traffic, whose signature set rolls over whenever the
// generation server publishes a new version, with zero dropped packets
// and no lock on the hot path:
//
//   - Packets are hashed by destination host onto a fixed set of shards,
//     so packets for one host land on one worker and its matcher state
//     stays cache-warm (Config.Affinity switches to round-robin when
//     host locality is not wanted).
//   - Each shard's queue is a bounded lock-free MPSC ring: producers
//     publish a packet with one CAS and one atomic store — no mutex, no
//     channel hop, no batch-slice allocation. A worker drains whatever
//     is published, up to min(Config.QueueDepth, 512) packets per pass,
//     and loads the compiled-set pointer once per drain.
//   - Reload compiles the new set on the caller's goroutine, off the hot
//     path, and swaps it in with a single atomic pointer store; it returns
//     once the new generation is live. Generations apply strictly
//     monotonically, so concurrent reloads cannot regress the live set.
//   - Submit blocks while a shard's ring is full (bounded backpressure).
//     A stalled sink slows only its own shard's ring — sibling shards
//     keep flowing.
//   - Results leave one way: each drain's verdicts are handed to the
//     shard's bound Sink as one borrowed batch, assembled in a
//     worker-owned arena (no allocation per packet, valid for the call).
//     BatchCallbackSink, CountSink, TeeSink and the per-verdict adapter
//     behind Config.OnVerdict are small adapters over that one method.
//
// Pool stacks a multi-tenant layer on top: a tenant is one engine plus
// its sink, keyed by app package, device cohort or destination host,
// sized from a global shard budget, created lazily on first packet,
// evicted when idle, and optionally pinned to a tenant-private signature
// set — one service instance isolating many traffic populations the way
// the paper's per-module signatures isolate ad libraries (§IV-A). The
// pool compiles its default set once per Pool.Reload and every unpinned
// tenant points at that one immutable generation; only pinned tenants
// compile for themselves.
//
// Metrics (packets/s, match rate, ring depth, reloads,
// reload latency, p50/p99 latency) are exposed through Metrics, reusing
// internal/stats for the quantiles; Pool.Metrics aggregates across
// tenants, evicted ones included.
package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"leaksig/internal/httpmodel"
	"leaksig/internal/obs/trace"
	"leaksig/internal/signature"
)

// errClosed is returned by Submit after Close.
var errClosed = errors.New("engine: closed")

// Affinity selects how packets map onto shards.
type Affinity int

const (
	// AffinityHost hashes the destination host, keeping each host's
	// traffic on one worker (the default).
	AffinityHost Affinity = iota
	// AffinityNone spreads packets round-robin for maximum balance when
	// per-host locality is not needed.
	AffinityNone
)

// Config parameterizes the engine. The zero value selects sensible
// defaults for every field.
type Config struct {
	// Shards is the worker count; 0 means runtime.GOMAXPROCS(0).
	Shards int
	// QueueDepth bounds the packets queued per shard — the capacity of
	// the shard's ring, rounded up to a power of two; 0 means 1024. A
	// worker drains at most min(QueueDepth, 512) packets per pass, so a
	// small QueueDepth also means small drains.
	QueueDepth int
	// Affinity selects the shard-assignment strategy.
	Affinity Affinity
	// OnVerdict, when non-nil, receives every verdict, ahead of Sink: it
	// is called from shard worker goroutines concurrently (so it must be
	// safe for that), and it may keep the verdicts it is handed, since
	// each owns its Matched slice.
	OnVerdict func(Verdict)
	// Sink, when non-nil, receives every drain's verdicts through
	// per-shard consumers (see Sink and ShardSink for the borrow rule).
	Sink Sink
	// Flight, when non-nil, is the flight recorder the engine feeds:
	// blocking-submit stalls and reload tickets issued and applied. Nil
	// disables recording at the cost of a nil check off the per-packet
	// path.
	Flight *trace.Flight
}

// ShardCount resolves the worker count this configuration will run with
// — what daemons size shard-striped companions (the flight recorder) to
// before constructing the engine.
func (c Config) ShardCount() int { return c.withDefaults().Shards }

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	return c
}

// Verdict is the outcome of matching one streamed packet.
type Verdict struct {
	Packet  *httpmodel.Packet
	Seq     uint64        // zero-based acceptance order across the engine
	Matched []int         // IDs of matching signatures; empty means clean
	Version int64         // signature-set version the verdict was decided under
	Latency time.Duration // queue-to-verdict latency; 0 when unsampled
}

// Leak reports whether the packet matched any signature.
func (v Verdict) Leak() bool { return len(v.Matched) > 0 }

// Engine is the streaming detector. Construct with New; all methods are
// safe for concurrent use.
type Engine struct {
	cfg Config

	set    atomic.Pointer[compiledSet]
	shards []*shard

	seq      atomic.Uint64 // next acceptance sequence number
	ingested atomic.Uint64
	reloads  atomic.Int64 // generations installed
	compiles atomic.Int64 // signature sets this engine compiled itself

	// Reload machinery: gen tickets order every Reload and adopt call;
	// install applies generations strictly monotonically, so a slow
	// compile can never overwrite a newer set.
	reloadGen    atomic.Uint64
	lastReloadNs atomic.Int64 // compile+install wall time of the last applied reload

	// Synchronous-vet counters: Vet bypasses the queue, so the
	// shard counters never see it; these make inline consumers (the
	// flowcontrol proxy) share the engine's telemetry.
	syncVetted  atomic.Uint64
	syncMatched atomic.Uint64

	submitMu sync.RWMutex // closed check vs Close
	closed   bool

	stop    chan struct{} // closed by Close: wakes parked workers
	stopped atomic.Bool   // set before stop closes; workers exit on empty ring
	wg      sync.WaitGroup
	start   time.Time
}

// New starts an engine over the signature set (nil for empty) and begins
// accepting packets immediately.
func New(set *signature.Set, cfg Config) *Engine {
	e := newEngine(compile(set), cfg)
	e.compiles.Add(1)
	return e
}

// newEngine starts an engine on an already compiled generation, which may
// be shared with other engines (a Pool's tenants on its default set).
func newEngine(cs *compiledSet, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:   cfg,
		stop:  make(chan struct{}),
		start: time.Now(),
	}
	e.set.Store(cs)
	sink := cfg.Sink
	if cfg.OnVerdict != nil {
		sink = TeeSink(callbackSink(cfg.OnVerdict), sink)
	}
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		s := newShard(cfg.QueueDepth)
		s.idx = i
		if sink != nil {
			s.sink = sink.Bind(i, cfg.Shards)
		}
		e.shards[i] = s
		e.wg.Add(1)
		go e.run(s)
	}
	return e
}

// issue hands out the next reload ticket and records it.
func (e *Engine) issue(detail string) uint64 {
	gen := e.reloadGen.Add(1)
	e.cfg.Flight.Record(trace.FlightEvent{Kind: trace.KindReloadIssue, Shard: -1, Value: int64(gen), Detail: detail})
	return gen
}

// install makes cs the live generation iff it is newer than the current
// one. Concurrent reloads — a caller's Reload against a Pool's adopt —
// race through here, and the monotonic gen check guarantees a stale
// compile is discarded rather than applied.
// started is when the work that produced cs began — before its compile,
// whoever ran it — so LastReload reads compile + install.
func (e *Engine) install(cs *compiledSet, started time.Time) bool {
	for {
		cur := e.set.Load()
		if cur.gen >= cs.gen {
			return false
		}
		if e.set.CompareAndSwap(cur, cs) {
			e.reloads.Add(1)
			e.lastReloadNs.Store(time.Since(started).Nanoseconds())
			e.cfg.Flight.Record(trace.FlightEvent{
				Kind: trace.KindReloadApply, Shard: -1,
				Value: int64(cs.gen), Detail: time.Since(started).String(),
			})
			return true
		}
	}
}

// adopt makes a generation compiled elsewhere (by the Pool, once for all
// its unpinned tenants) live here under a fresh ticket, ordered against
// this engine's own Reload calls like any other reload.
// shared is not modified — it is other engines' generation too — the
// ticket goes on this engine's own copy of the small wrapper.
func (e *Engine) adopt(shared *compiledSet, started time.Time) {
	cs := *shared
	cs.gen = e.issue("shared")
	e.install(&cs, started)
}

// Reload compiles the new signature set and atomically swaps it in,
// returning only after the new generation is live: packets submitted
// after Reload returns are judged under it. The compile happens on the
// caller's goroutine, so intake is never blocked; a caller following a
// stream of publishes coalesces bursts by fetching the newest set once
// Reload returns rather than queueing stale ones. Packets already queued
// are never dropped — they are simply matched under whichever generation
// is live when their drain runs.
func (e *Engine) Reload(set *signature.Set) {
	gen := e.issue("")
	started := time.Now()
	cs := compile(set)
	cs.gen = gen
	e.compiles.Add(1)
	e.install(cs, started)
}

// Version returns the live signature-set version.
func (e *Engine) Version() int64 { return e.set.Load().version }

// Vet vets one packet synchronously against the live set, bypassing the
// queue, and returns its verdict: the caller owns Matched, Version is the
// generation that decided it (both read from one load of the live set,
// so they always agree), Seq and Latency are zero. Vets land in the
// SyncVetted/SyncMatched telemetry.
func (e *Engine) Vet(p *httpmodel.Packet) Verdict {
	cs := e.set.Load()
	// detect.Engine draws scratch from its own per-generation pool, so
	// only a leaking packet allocates, for its copied-out IDs.
	m := cs.eng.MatchPacket(p)
	e.syncVetted.Add(1)
	if len(m) > 0 {
		e.syncMatched.Add(1)
	}
	return Verdict{Packet: p, Matched: m, Version: cs.version}
}

// MatchPacket is Vet reduced to the matched signature IDs — the
// flowcontrol backend hook: a proxy gets the engine's hot-reload
// semantics with inline request latency.
func (e *Engine) MatchPacket(p *httpmodel.Packet) []int { return e.Vet(p).Matched }

// isClosed reports whether Close has begun.
func (e *Engine) isClosed() bool {
	e.submitMu.RLock()
	defer e.submitMu.RUnlock()
	return e.closed
}

// shardFor maps a packet onto its shard.
func (e *Engine) shardFor(p *httpmodel.Packet, seq uint64) *shard {
	if len(e.shards) == 1 {
		return e.shards[0]
	}
	if e.cfg.Affinity == AffinityNone {
		return e.shards[seq%uint64(len(e.shards))]
	}
	// Inline FNV-1a over the host avoids a per-packet hasher allocation.
	h := uint64(14695981039346656037)
	for i := 0; i < len(p.Host); i++ {
		h ^= uint64(p.Host[i])
		h *= 1099511628211
	}
	return e.shards[h%uint64(len(e.shards))]
}

// Submit queues one packet for matching, blocking while the target shard's
// ring is full (backpressure). It returns errClosed after Close.
func (e *Engine) Submit(p *httpmodel.Packet) error {
	e.submitMu.RLock()
	defer e.submitMu.RUnlock()
	if e.closed {
		return errClosed
	}
	e.submit(p)
	return nil
}

// submit publishes the packet into its shard's ring: one CAS, one store,
// zero allocations. When the ring is full it spins briefly then sleeps in
// short slices until the worker frees a slot — the backpressure point.
// Caller holds submitMu.RLock, which is what guarantees Close observes no
// in-flight publication.
func (e *Engine) submit(p *httpmodel.Packet) {
	// Seq is a gapless admission ticket: every packet that takes one is
	// published.
	seq := e.seq.Add(1) - 1
	s := e.shardFor(p, seq)
	it := item{p: p, seq: seq}
	if seq%latencySampleEvery == 0 {
		it.enq = time.Now().UnixNano()
	}
	if p.Span != nil {
		p.Span.Stamp(trace.StageEnqueue)
	}
	for spin := 0; !s.ring.push(it); spin++ {
		if spin < 8 {
			runtime.Gosched()
		} else {
			time.Sleep(5 * time.Microsecond)
		}
		// ~1.25ms of continuous backpressure on one ring means the shard's
		// consumer is not keeping up — most likely a stalled sink. Flag it
		// once per blocking episode; the recorder rate-limits the dump
		// trigger itself.
		if spin == sinkStallSpins {
			e.cfg.Flight.Trigger(trace.KindSinkStall, trace.FlightEvent{
				Kind: trace.KindSinkStall, Shard: s.idx, Trace: p.Trace,
				Value: int64(s.ring.len()), Detail: "blocking submit stalled",
			})
		}
	}
	e.ingested.Add(1)
}

// sinkStallSpins is the blocking-submit spin count treated as a stalled
// sink: 8 Gosched yields plus ~248 5µs sleeps ≈ 1.25ms on one full ring.
const sinkStallSpins = 256

// Flush blocks until every packet accepted so far has been matched and
// its verdict delivered to the sink. After Close it returns immediately
// (Close already drained the rings).
func (e *Engine) Flush() {
	if e.isClosed() {
		return
	}
	target := e.ingested.Load()
	for {
		var done uint64
		for _, s := range e.shards {
			done += s.processed.Load()
		}
		if done >= target {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Close stops intake, drains every queued packet through the matcher, and
// waits for the workers to exit. No accepted packet is ever dropped. Close
// is idempotent.
func (e *Engine) Close() {
	e.submitMu.Lock()
	if e.closed {
		e.submitMu.Unlock()
		return
	}
	e.closed = true
	e.submitMu.Unlock()

	// Every producer has finished (the write lock excluded them), so the
	// rings hold their final contents. Mark stopped before broadcasting:
	// a worker that wakes to an empty ring may then exit.
	e.stopped.Store(true)
	close(e.stop)
	e.wg.Wait()
}

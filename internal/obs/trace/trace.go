// Package trace is the pipeline's sampling tracer and always-on flight
// recorder, built on the standard library alone and importable from the
// hottest packages (httpmodel, engine) without touching the obs parent:
// obs imports engine for its snapshot adapters, so the trace layer must
// sit below both.
//
// A Span follows one packet through the pipeline's stages — ingest,
// rate-limit, ring enqueue, shard drain, match, sink delivery, and (for
// misses that feed generation) reservoir admission and cluster epoch —
// as a fixed array of nanosecond stamps. Spans are head-sampled: Start
// returns nil for unsampled packets, so the streaming hot path pays one
// nil check per stamp point and allocates nothing. Sampled spans recycle
// through a sync.Pool, and finishing one folds its consecutive stage
// deltas into per-stage atomic histograms (the leaksig_stage_seconds
// families the obs adapter exposes).
//
// Trace identity crosses process boundaries as a 16-hex-digit ID: it
// rides packet NDJSON as the "trace" field, publish bodies as the
// signature set's "traces" provenance, and HTTP hops as the
// X-Leaksig-Trace header. Adopt continues a trace started elsewhere, so
// one ID covers "leak seen → signature published → engine reloaded"
// across leakstream, siggend, sigserver, and every watching engine.
//
// Stages whose unit of work is an epoch rather than a packet (distill,
// publish, reload apply) feed their histograms directly through Observe.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage names one pipeline station a span can stamp.
type Stage uint8

const (
	// StageIngest is decode+validate at the daemon edge (trace origin).
	StageIngest Stage = iota
	// StageRateLimit is the per-tenant intake limiter decision.
	StageRateLimit
	// StageEnqueue is publication into the shard's MPSC ring.
	StageEnqueue
	// StageDrain is the worker pulling the packet out of its ring.
	StageDrain
	// StageMatch is the automaton match against the live compiled set.
	StageMatch
	// StageSink is verdict delivery to the engine's bound sink.
	StageSink
	// StageReservoir is admission into a learner tenant reservoir.
	StageReservoir
	// StageCluster is the epoch feeding the sample into the rolling
	// clusterer (the span's last per-packet station; the learner retains
	// only the trace ID beyond it).
	StageCluster
	// StageDistill is one epoch's candidate distillation (fed via Observe).
	StageDistill
	// StagePublish is one publisher round trip (fed via Observe).
	StagePublish
	// StageReloadApply is a watcher applying a published set (fed via
	// Observe, and stamped on adopted spans for flight visibility).
	StageReloadApply

	numStages
)

var stageNames = [numStages]string{
	"ingest", "rate_limit", "enqueue", "drain", "match", "sink",
	"reservoir", "cluster", "distill", "publish", "reload_apply",
}

// String returns the stable exposition name of the stage — these are the
// `stage` label values of leaksig_stage_seconds.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Stages lists every stage in pipeline order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// histBucketCount and the bounds below cover six orders of magnitude:
// sub-microsecond ring hops up to multi-minute miss-to-publish epochs.
const histBucketCount = 14

var histBounds = func() [histBucketCount]float64 {
	var b [histBucketCount]float64
	v := 1e-6 // 1µs
	for i := range b {
		b[i] = v
		v *= 4 // ..., 1µs, 4µs, ..., ~67s, ~268s
	}
	return b
}()

// stageHist is one stage's fixed-bucket latency histogram. All fields are
// atomics, so sampled-span finishes on shard workers never contend with
// scrapes.
type stageHist struct {
	counts [histBucketCount]atomic.Uint64
	count  atomic.Uint64
	sumNs  atomic.Int64
}

func (h *stageHist) observe(ns int64) {
	sec := float64(ns) / 1e9
	for i := 0; i < histBucketCount; i++ {
		if sec <= histBounds[i] {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	h.sumNs.Add(ns)
}

// Span is one sampled packet's journey: a trace ID plus one nanosecond
// stamp per stage. The zero stages are "never reached". Spans are pooled;
// ownership is reference counted — Start/Adopt hand the caller one
// reference, Hold takes another for a consumer that outlives the caller
// (the learner intake), and the last Finish folds the stage deltas into
// the tracer's histograms and recycles the span. A nil *Span is valid
// everywhere and does nothing, which is what the unsampled path costs.
type Span struct {
	tr     *Tracer
	id     string
	stamps [numStages]int64
	refs   atomic.Int32
}

// ID returns the 16-hex-digit trace ID ("" for a nil span).
func (sp *Span) ID() string {
	if sp == nil {
		return ""
	}
	return sp.id
}

// Stamp records "stage happened now". Stamping the same stage twice keeps
// the later time.
func (sp *Span) Stamp(st Stage) {
	if sp == nil {
		return
	}
	sp.stamps[st] = time.Now().UnixNano()
}

// Hold takes an extra reference for a consumer on another goroutine (the
// learner intake holds the span across its channel hop); pair it with
// Finish.
func (sp *Span) Hold() {
	if sp != nil {
		sp.refs.Add(1)
	}
}

// Finish releases one reference; the last release flushes the stage
// deltas into the tracer's histograms and recycles the span. The span
// must not be touched after the caller's final Finish.
func (sp *Span) Finish() {
	if sp == nil {
		return
	}
	if sp.refs.Add(-1) > 0 {
		return
	}
	sp.tr.flush(sp)
}

// Tracer is the per-process tracing state: the head-sampling decision,
// the span pool, and the per-stage latency histograms. A nil *Tracer is
// valid everywhere and disables everything. Construct with NewTracer; all
// methods are safe for concurrent use.
type Tracer struct {
	every uint64 // head-sample 1-in-N; 0 means Start never samples
	ctr   atomic.Uint64
	seq   atomic.Uint64

	started  atomic.Uint64
	adopted  atomic.Uint64
	finished atomic.Uint64

	pool  sync.Pool
	hists [numStages]stageHist
}

// NewTracer builds a tracer head-sampling one packet in sampleEvery
// (1 samples everything; 0 or negative starts no new traces, but Adopt
// and Observe still work, so a downstream daemon with sampling off keeps
// honoring traces its upstream started).
func NewTracer(sampleEvery int) *Tracer {
	t := &Tracer{}
	if sampleEvery > 0 {
		t.every = uint64(sampleEvery)
	}
	t.pool.New = func() any { return new(Span) }
	return t
}

// get readies a pooled span with one reference and no stamps.
func (t *Tracer) get() *Span {
	sp := t.pool.Get().(*Span)
	sp.tr = t
	for i := range sp.stamps {
		sp.stamps[i] = 0
	}
	sp.refs.Store(1)
	return sp
}

// Start makes the head-sampling decision for one new unit of work and
// returns a live span (with a fresh trace ID) for the sampled ones, nil
// for the rest. The unsampled path costs one atomic add.
func (t *Tracer) Start() *Span {
	if t == nil || t.every == 0 {
		return nil
	}
	if t.ctr.Add(1)%t.every != 0 {
		return nil
	}
	sp := t.get()
	sp.id = formatID(splitmix64(t.seq.Add(1)))
	t.started.Add(1)
	return sp
}

// StartID is Start for fire-and-forget propagation: it makes the same
// sampling decision but returns only a trace ID ("" when unsampled),
// for emitters that stamp no stages of their own (flowproxy tags the
// misses it ships to the learner and moves on).
func (t *Tracer) StartID() string {
	if t == nil || t.every == 0 {
		return ""
	}
	if t.ctr.Add(1)%t.every != 0 {
		return ""
	}
	t.started.Add(1)
	return formatID(splitmix64(t.seq.Add(1)))
}

// Adopt continues a trace started in another process under the given ID.
// It ignores the sampling rate — the head decision was made upstream —
// and returns nil only for a nil tracer or empty ID.
func (t *Tracer) Adopt(id string) *Span {
	if t == nil || id == "" {
		return nil
	}
	sp := t.get()
	sp.id = id
	t.adopted.Add(1)
	return sp
}

// Observe feeds one duration straight into a stage's histogram — the
// route for epoch-granular stages (distill, publish, reload apply) whose
// unit of work is not a single packet.
func (t *Tracer) Observe(st Stage, d time.Duration) {
	if t == nil || d < 0 || st >= numStages {
		return
	}
	t.hists[st].observe(int64(d))
}

// flush folds a finished span's consecutive stage deltas into the stage
// histograms: each stamped stage records the time since the previous
// stamped stage, so a cross-process span contributes exactly the stages
// its process ran.
func (t *Tracer) flush(sp *Span) {
	var last int64
	for st := Stage(0); st < numStages; st++ {
		ns := sp.stamps[st]
		if ns == 0 {
			continue
		}
		if last != 0 && ns >= last {
			t.hists[st].observe(ns - last)
		}
		last = ns
	}
	t.finished.Add(1)
	sp.id = ""
	t.pool.Put(sp)
}

// StageSnapshot is one stage's histogram at a point in time, shaped for
// Prometheus exposition: Counts[i] observations fell in
// (Bounds[i-1], Bounds[i]] (non-cumulative), Count and SumSeconds cover
// everything including the implicit +Inf bucket.
type StageSnapshot struct {
	Stage      string
	Count      uint64
	SumSeconds float64
	Bounds     []float64
	Counts     []uint64
}

// TracerStats is the tracer's own accounting.
type TracerStats struct {
	SampleEvery uint64 `json:"sample_every"` // 0 = not starting new traces
	Started     uint64 `json:"started"`      // spans head-sampled here
	Adopted     uint64 `json:"adopted"`      // spans continued from upstream
	Finished    uint64 `json:"finished"`     // spans flushed into the histograms
}

// Stats returns the tracer's accounting counters.
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	return TracerStats{
		SampleEvery: t.every,
		Started:     t.started.Load(),
		Adopted:     t.adopted.Load(),
		Finished:    t.finished.Load(),
	}
}

// Snapshot returns every stage's histogram in pipeline order — the feed
// behind the leaksig_stage_seconds exposition. The stage set is fixed, so
// the series catalog is stable from the first scrape.
func (t *Tracer) Snapshot() []StageSnapshot {
	if t == nil {
		return nil
	}
	out := make([]StageSnapshot, numStages)
	for st := Stage(0); st < numStages; st++ {
		h := &t.hists[st]
		s := StageSnapshot{
			Stage:      st.String(),
			Count:      h.count.Load(),
			SumSeconds: float64(h.sumNs.Load()) / 1e9,
			Bounds:     histBounds[:],
			Counts:     make([]uint64, histBucketCount),
		}
		for i := 0; i < histBucketCount; i++ {
			s.Counts[i] = h.counts[i].Load()
		}
		out[st] = s
	}
	return out
}

// splitmix64 is the SplitMix64 finalizer: a cheap bijection turning the
// sequential span counter into well-spread trace IDs without any global
// RNG state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

const hexDigits = "0123456789abcdef"

// formatID renders a trace ID in its canonical 16-hex-digit form.
func formatID(v uint64) string {
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexDigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

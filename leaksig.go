// Package leaksig reproduces "Signature Generation for Sensitive
// Information Leakage in Android Applications" (Kuzuno & Tonami, ICDE
// Workshops 2013): clustering HTTP packets by a combined destination +
// content distance and deriving conjunction signatures that detect
// transmissions of device identifiers, without modifying the Android
// framework.
//
// The package is a thin facade over the implementation packages:
//
//	internal/distance   — the packet distance (§IV-B/C)
//	internal/cluster    — group-average hierarchical clustering (§IV-D)
//	internal/signature  — conjunction signature generation (§IV-E)
//	internal/detect     — the batch matching engine and the paper's TP/FN/FP
//	internal/engine     — the sharded streaming engine with hot reload
//	internal/trafficgen — the calibrated synthetic dataset (§III, §V-A)
//	internal/eval       — every table and figure of the evaluation
//	internal/siggen     — online incremental signature generation
//	internal/sigserver  — signature distribution (Figure 3a)
//	internal/flowcontrol— the on-device vetting proxy (Figure 3b)
//	internal/obs        — the ops plane: Prometheus exposition, event
//	                      shipping, per-tenant intake accounting
//	internal/durable    — crash safety: publish journal, learner
//	                      checkpoints, last-known-good signature cache
//	internal/resilience — jittered backoff + circuit breakers for every
//	                      HTTP write path
//	internal/faultinject— deterministic seedable chaos injection for
//	                      failure drills
//
// Detection comes in two modes. The offline mode (Detect, Evaluate)
// scores a fully materialized capture — the paper's evaluation posture.
// The streaming mode (NewStreamEngine, DetectStream) is the deployment
// posture: a long-running sharded service consuming live packets, whose
// signature set a sigserver publish hot-swaps mid-stream without a
// restart or a dropped packet; cmd/leakstream is its daemon form.
//
// Quickstart:
//
//	sigs := leaksig.GenerateSignatures(suspiciousPackets, leaksig.Config{})
//	verdicts := leaksig.Detect(sigs, allPackets)
package leaksig

import (
	"leaksig/internal/capture"
	"leaksig/internal/core"
	"leaksig/internal/detect"
	"leaksig/internal/engine"
	"leaksig/internal/httpmodel"
	"leaksig/internal/obs"
	"leaksig/internal/obs/trace"
	"leaksig/internal/sensitive"
	"leaksig/internal/siggen"
	"leaksig/internal/signature"
	"leaksig/internal/trafficgen"
)

// Packet is one captured HTTP request (see internal/httpmodel).
type Packet = httpmodel.Packet

// Config parameterizes the clustering and signature-generation pipeline;
// the zero value reproduces the paper's setup.
type Config = core.Config

// SignatureSet is a generated conjunction signature set.
type SignatureSet = signature.Set

// Result carries the paper's evaluation counts and rates.
type Result = detect.Result

// Get starts a GET request builder (for constructing packets by hand).
func Get(host, path string) *httpmodel.Builder { return httpmodel.Get(host, path) }

// Post starts a POST request builder.
func Post(host, path string) *httpmodel.Builder { return httpmodel.Post(host, path) }

// GenerateSignatures clusters the (suspicious) packets under cfg and emits
// one conjunction signature per cluster (§IV).
func GenerateSignatures(packets []*Packet, cfg Config) *SignatureSet {
	return core.NewPipeline(cfg).GenerateSignatures(packets)
}

// Detect applies the signature set to every packet and returns one verdict
// per packet, in order.
func Detect(set *SignatureSet, packets []*Packet) []bool {
	eng := detect.NewEngine(set)
	return eng.MatchSet(capture.New(packets))
}

// Matcher is the compiled batch matcher (see internal/detect): a dense
// Aho–Corasick automaton over the token union plus an inverted
// token→signature index. Immutable and safe for concurrent use; hot
// per-packet loops should pair it with a MatchScratch per goroutine and
// call MatchInto, which allocates nothing in the steady state.
type Matcher = detect.Engine

// MatchScratch carries all per-packet mutable matching state (automaton
// state, occurrence bitset, remaining-token counters, matched-ID buffer).
// The zero value is ready to use; one per goroutine.
type MatchScratch = detect.Scratch

// NewMatcher compiles a signature set into its matcher once, for callers
// that match many captures or packets against the same set.
func NewMatcher(set *SignatureSet) *Matcher { return detect.NewEngine(set) }

// Evaluate scores a signature set against ground-truth labels using the
// paper's TP/FN/FP equations (§V-B). n is the training-sample size.
func Evaluate(set *SignatureSet, packets []*Packet, sensitiveLabels []bool, n int) Result {
	eng := detect.NewEngine(set)
	return detect.Evaluate(eng, capture.New(packets), sensitiveLabels, n)
}

// StreamEngine is the sharded streaming detector (see internal/engine).
type StreamEngine = engine.Engine

// StreamConfig parameterizes the streaming engine; the zero value selects
// sensible defaults.
type StreamConfig = engine.Config

// StreamVerdict is the outcome of matching one streamed packet.
type StreamVerdict = engine.Verdict

// NewStreamEngine starts a streaming detection engine over the signature
// set. Packets enter through Submit, each worker drain's verdicts leave
// as one borrowed batch through StreamConfig.Sink (OnVerdict is
// shorthand for a CallbackSink), and Reload hot-swaps the signature set
// mid-stream without dropping a packet, returning once the new set is
// live.
func NewStreamEngine(set *SignatureSet, cfg StreamConfig) *StreamEngine {
	return engine.New(set, cfg)
}

// DetectStream runs every packet through a fresh streaming engine and
// returns one verdict per packet in order — Detect's streaming
// equivalent.
func DetectStream(set *SignatureSet, packets []*Packet, cfg StreamConfig) []bool {
	return engine.MatchSet(set, capture.New(packets), cfg)
}

// Pool is the multi-tenant streaming layer: one engine per tenant key
// (app package, device cohort, destination host) sharing a global shard
// budget, with lazy creation, idle eviction, and pool-wide aggregated
// metrics (see internal/engine).
type Pool = engine.Pool

// PoolConfig parameterizes NewPool; the zero value selects sensible
// defaults.
type PoolConfig = engine.PoolConfig

// PoolSnapshot is a point-in-time view of a pool's tenants and lifetime
// aggregates.
type PoolSnapshot = engine.PoolSnapshot

// NewPool starts an empty multi-tenant pool whose tenants begin life on
// the signature set (nil for empty). Route packets with Pool.Submit, pin
// per-tenant sets with Pool.ReloadTenant, and roll the shared default
// with Pool.Reload.
func NewPool(set *SignatureSet, cfg PoolConfig) *Pool {
	return engine.NewPool(set, cfg)
}

// Sink is the streaming engine's per-shard result consumer interface;
// ShardSink is one shard's bound consumer.
type Sink = engine.Sink

// ShardSink is one shard's private verdict consumer: one Batch call per
// worker drain, the slice borrowed for the call (see engine.ShardSink).
type ShardSink = engine.ShardSink

// CountSink aggregates per-shard packet and leak tallies — the cheapest
// streaming posture when only totals matter.
type CountSink = engine.CountSink

// NewCountSink returns an empty aggregation sink; pass it as
// StreamConfig.Sink and read totals with CountSink.Totals.
func NewCountSink() *CountSink { return engine.NewCountSink() }

// CallbackSink adapts a per-verdict function to the Sink interface. Each
// verdict owns its matched-ID slice, so fn may keep what it is handed.
func CallbackSink(fn func(StreamVerdict)) Sink { return engine.CallbackSink(fn) }

// BatchCallbackSink adapts a per-batch function to the Sink interface —
// the engine's delivery as is: the verdicts and their matched-ID slices
// are overwritten by the next drain once the callback returns, so
// consumers that retain verdicts must copy them.
func BatchCallbackSink(fn func([]StreamVerdict)) Sink { return engine.BatchCallbackSink(fn) }

// TeeSink fans engine results out to several sinks — e.g. a CountSink
// for totals plus a Learner's MissSink feeding online generation.
func TeeSink(sinks ...Sink) Sink { return engine.TeeSink(sinks...) }

// Learner is the online signature-generation service (see
// internal/siggen): it samples unmatched flows from running engines
// through MissSink, maintains rolling tenant-tagged clusters over them,
// distills gated conjunction signatures each epoch, and auto-publishes
// accepted sets to a signature server every watching engine hot-reloads —
// the closed detect → cluster → generate → publish loop. With
// LearnerConfig.TenantSets it additionally publishes one named set per
// tenant (pin them into a Pool with PoolReloader or sigserver named-set
// watches), and signatures whose source clusters go stale are dropped
// from the next published versions (drift retirement). cmd/siggend is
// its daemon form; leakstream -learn embeds it next to a streaming
// engine.
type Learner = siggen.Service

// LearnerConfig parameterizes NewLearner; the zero value selects
// sensible defaults (no publisher means epochs only return sets).
type LearnerConfig = siggen.Config

// LearnerStats is a point-in-time view of a Learner's intake, cluster,
// and publish counters.
type LearnerStats = siggen.Stats

// LearnerClusterConfig tunes the Learner's incremental clusterer.
type LearnerClusterConfig = siggen.ClusterConfig

// SetPublisher is where a Learner sends accepted signature sets, each
// under its set name ("" for the global set, a tenant key for that
// tenant's set); see siggen.ServerPublisher and NewHTTPPublisher.
type SetPublisher = siggen.Publisher

// NewLearner starts an online signature-generation service. Wire its
// MissSink into a StreamConfig.Sink (or a TeeSink), or feed it directly
// with Observe; drive epochs with RunEpoch or LearnerConfig.GenerateInterval.
func NewLearner(cfg LearnerConfig) *Learner { return siggen.NewService(cfg) }

// NewHTTPPublisher returns a SetPublisher that POSTs accepted sets to
// the sigserver at base, authenticating with token when non-empty;
// per-tenant sets publish under /sets/{tenant}/.
func NewHTTPPublisher(base, token string) SetPublisher { return siggen.NewHTTPPublisher(base, token) }

// PoolReloader returns a LearnerConfig.OnPublish hook that pins
// each published tenant set into the Pool via ReloadTenant — the
// in-process route for per-tenant learned signatures. The global set is
// deliberately not installed as the pool default (it is the union across
// tenants; see siggen.PoolReloader).
func PoolReloader(p *Pool) func(name string, set *SignatureSet) {
	return siggen.PoolReloader(p)
}

// MetricsRegistry collects Prometheus text-format metric families from
// registered collectors and serves them over HTTP (see internal/obs).
// Project engines, pools, and learners into one with EngineMetrics,
// PoolMetrics, and LearnerMetrics, then mount Registry.Handler as
// GET /metrics.
type MetricsRegistry = obs.Registry

// MetricsCollector contributes metric families to a MetricsRegistry
// scrape.
type MetricsCollector = obs.Collector

// NewMetricsRegistry returns an empty registry pre-loaded with nothing;
// most callers immediately Register BuildInfoMetrics() plus the
// subsystem collectors.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// EngineMetrics projects a StreamEngine's snapshot (with the per-shard
// breakdown) into the leaksig_engine_* families at scrape time.
func EngineMetrics(e *StreamEngine) MetricsCollector {
	return obs.EngineCollector(e.Metrics, e.ShardStats)
}

// PoolMetrics projects a Pool's snapshot — lifecycle gauges, the
// eviction-surviving aggregate, and each live tenant under its label.
func PoolMetrics(p *Pool) MetricsCollector { return obs.PoolCollector(p.Metrics) }

// LearnerMetrics projects a Learner's stats into the leaksig_siggen_*
// families.
func LearnerMetrics(l *Learner) MetricsCollector { return obs.SiggenCollector(l.Stats) }

// BuildInfoMetrics emits the constant leaksig_build_info gauge (module
// version and Go toolchain as labels).
func BuildInfoMetrics() MetricsCollector { return obs.BuildInfoCollector() }

// EventShipper batches structured ops events into NDJSON uploads
// without ever blocking its producers: bounded buffer, flush on
// size/interval, retry with backoff, explicit drop accounting (see
// internal/obs).
type EventShipper = obs.Shipper

// EventShipperConfig parameterizes NewEventShipper.
type EventShipperConfig = obs.ShipperConfig

// OpsEvent is one structured ops-plane record (verdict, publish,
// retire, reload, decision, ...).
type OpsEvent = obs.Event

// NewEventShipper starts a shipper; its Collect method doubles as a
// MetricsCollector so event loss is scrapeable.
func NewEventShipper(cfg EventShipperConfig) *EventShipper { return obs.NewShipper(cfg) }

// IntakeLimiter enforces a per-tenant token-bucket intake limit with a
// bounded tenant table and eviction-surviving aggregate accounting (see
// internal/obs). Register it on a MetricsRegistry to scrape the
// leaksig_intake_* families.
type IntakeLimiter = obs.RateLimiter

// IntakeLimiterConfig parameterizes NewIntakeLimiter.
type IntakeLimiterConfig = obs.RateLimiterConfig

// NewIntakeLimiter builds a limiter; Rate <= 0 yields a pass-through
// limiter that still keeps per-tenant intake accounting.
func NewIntakeLimiter(cfg IntakeLimiterConfig) *IntakeLimiter { return obs.NewRateLimiter(cfg) }

// Tracer head-samples packets into pipeline spans: 1 in N submitted
// packets gets a Span whose nanosecond stage timestamps (ingest →
// rate-limit → enqueue → drain → match → sink; on the miss path
// reservoir → cluster → distill → publish → reload apply) feed the
// leaksig_stage_seconds histograms on finish. Unsampled packets pay one
// nil check. A nil *Tracer is fully inert (see internal/obs/trace).
type Tracer = trace.Tracer

// Span is one sampled packet's journey through the pipeline. Stamp
// records a stage timestamp; Hold/Finish manage the reference count
// across ownership handoffs (engine → learner); the last Finish flushes
// stage deltas into the tracer's histograms and recycles the span.
type Span = trace.Span

// TraceStage identifies one pipeline stage a Span can stamp.
type TraceStage = trace.Stage

// NewTracer builds a tracer sampling 1 in every packets (0 disables
// head sampling; Adopt and Observe still work, so cross-process trace
// continuation is independent of the local sampling rate).
func NewTracer(every int) *Tracer { return trace.NewTracer(every) }

// FlightRecorder is the always-on bounded ring of structured pipeline
// events (drops, sink stalls, reload tickets, batch-target changes) with
// trigger-based dumping — the post-hoc "what just happened" plane that
// complements sampled tracing (see internal/obs/trace). Attach one via
// StreamConfig.Flight and mount its dump via DebugHandler's
// GET /debug/flight.
type FlightRecorder = trace.Flight

// FlightEvent is one recorded flight event.
type FlightEvent = trace.FlightEvent

// NewFlightRecorder builds a recorder striped across shards engine
// shards (stripe 0 holds engine-scope events); depth <= 0 selects the
// default per-stripe ring depth.
func NewFlightRecorder(shards, depth int) *FlightRecorder { return trace.NewFlight(shards, depth) }

// TracerMetrics projects a Tracer's per-stage histograms and span
// accounting into the leaksig_stage_seconds and leaksig_trace_* families.
func TracerMetrics(t *Tracer) MetricsCollector { return obs.TracerCollector(t) }

// FlightMetrics projects a FlightRecorder's accounting into the
// leaksig_flight_* families.
func FlightMetrics(f *FlightRecorder) MetricsCollector { return obs.FlightCollector(f) }

// Dataset is a synthetic capture with its device and ground truth.
type Dataset struct {
	Packets   []*Packet
	Sensitive []bool // ground-truth label per packet (the payload check)
	inner     *trafficgen.Dataset
}

// SyntheticDataset fabricates a dataset calibrated to the paper's
// measurement (1,188 apps / 107,859 packets at full scale). numApps and
// totalPackets of 0 select the paper's values; seed fixes every random
// choice.
func SyntheticDataset(seed int64, numApps, totalPackets int) *Dataset {
	ds := trafficgen.Generate(trafficgen.Config{
		Seed:         seed,
		NumApps:      numApps,
		TotalPackets: totalPackets,
	})
	oracle := sensitive.NewOracle(ds.Device)
	labels := make([]bool, ds.Capture.Len())
	for i, p := range ds.Capture.Packets {
		labels[i] = oracle.IsSensitive(p)
	}
	return &Dataset{Packets: ds.Capture.Packets, Sensitive: labels, inner: ds}
}

// SuspiciousPackets returns the packets the payload check labels sensitive.
func (d *Dataset) SuspiciousPackets() []*Packet {
	var out []*Packet
	for i, p := range d.Packets {
		if d.Sensitive[i] {
			out = append(out, p)
		}
	}
	return out
}

package obs

import (
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"

	"leaksig/internal/durable"
	"leaksig/internal/engine"
	"leaksig/internal/faultinject"
	"leaksig/internal/obs/trace"
	"leaksig/internal/resilience"
	"leaksig/internal/siggen"
	"leaksig/internal/sigserver"
)

// The adapters in this file project the subsystems' existing internal
// snapshots — engine.Snapshot, engine.PoolSnapshot, siggen.Stats,
// sigserver.ServerStats — into metric families at scrape time. Each
// takes a snapshot function rather than the object itself, so a daemon
// can point one at whatever backend posture it runs (single engine,
// pool, learner) and the subsystems never import obs.

// EngineCollector projects one engine's snapshot (and, when shards is
// non-nil, its per-shard breakdown) into the leaksig_engine_* families.
func EngineCollector(snap func() engine.Snapshot, shards func() []engine.ShardStat) Collector {
	return CollectorFunc(func(m *MetricWriter) {
		s := snap()
		writeEngineSnapshot(m, s, nil)
		if shards == nil {
			return
		}
		for i, sh := range shards() {
			shard := label("shard", strconv.Itoa(i))
			m.Counter("leaksig_engine_shard_processed_total", "Packets matched, per worker shard.", float64(sh.Processed), shard)
			m.Counter("leaksig_engine_shard_matched_total", "Leaking packets, per worker shard.", float64(sh.Matched), shard)
			m.Gauge("leaksig_engine_shard_ring_depth", "Packets occupying the shard's MPSC ring.", float64(sh.RingDepth), shard)
		}
	})
}

// writeEngineSnapshot emits the leaksig_engine_* families for one
// snapshot under the given labels (none for a single engine, a tenant
// label inside a pool).
func writeEngineSnapshot(m *MetricWriter, s engine.Snapshot, labels []Label) {
	m.Counter("leaksig_engine_ingested_total", "Packets accepted by Submit.", float64(s.Ingested), labels...)
	m.Counter("leaksig_engine_processed_total", "Packets matched and emitted.", float64(s.Processed), labels...)
	m.Counter("leaksig_engine_matched_total", "Processed packets that matched at least one signature.", float64(s.Matched), labels...)
	m.Counter("leaksig_engine_sync_vetted_total", "Packets vetted inline via MatchPacket (proxy path).", float64(s.SyncVetted), labels...)
	m.Counter("leaksig_engine_sync_matched_total", "Inline vets that matched at least one signature.", float64(s.SyncMatched), labels...)
	m.Counter("leaksig_engine_reloads_total", "Signature hot reloads applied (generations installed) since construction.", float64(s.Reloads), labels...)
	m.Counter("leaksig_engine_compiles_total", "Signature sets compiled; a pool compiles its default once for all unpinned tenants, so they add reloads here but no compiles.", float64(s.Compiles), labels...)
	m.Gauge("leaksig_engine_reload_generation", "Generation ticket of the live signature set (monotonic; a reload overtaken by a newer one skips).", float64(s.ReloadGen), labels...)
	m.Gauge("leaksig_engine_reload_last_seconds", "Compile+install wall time of the last applied reload.", s.LastReload.Seconds(), labels...)
	m.Gauge("leaksig_engine_queue_depth", "Packets accepted but not yet processed.", float64(s.QueueDepth), labels...)
	m.Gauge("leaksig_engine_shards", "Worker shard count.", float64(s.Shards), labels...)
	m.Gauge("leaksig_engine_signatures", "Signatures in the live set.", float64(s.Signatures), labels...)
	m.Gauge("leaksig_engine_signature_version", "Live signature-set version.", float64(s.Version), labels...)
	m.Gauge("leaksig_engine_packets_per_second", "Lifetime processed packets per second.", s.PacketsPerSec, labels...)
	m.Gauge("leaksig_engine_match_rate", "Matched / processed, in [0, 1].", s.MatchRate, labels...)
	m.Gauge("leaksig_engine_latency_seconds", "Sampled queue-to-verdict latency quantiles.", s.P50.Seconds(), append(append([]Label{}, labels...), label("quantile", "0.5"))...)
	m.Gauge("leaksig_engine_latency_seconds", "Sampled queue-to-verdict latency quantiles.", s.P99.Seconds(), append(append([]Label{}, labels...), label("quantile", "0.99"))...)
}

// PoolCollector projects a pool snapshot: pool lifecycle gauges, the
// eviction-surviving aggregate as the unlabeled leaksig_engine_*
// families, and each live tenant's engine snapshot under its tenant
// label. Cardinality is bounded by the pool's MaxTenants cap.
func PoolCollector(snap func() engine.PoolSnapshot) Collector {
	return CollectorFunc(func(m *MetricWriter) {
		s := snap()
		m.Gauge("leaksig_pool_tenants", "Live tenants.", float64(s.Tenants))
		m.Counter("leaksig_pool_created_total", "Tenants ever created.", float64(s.Created))
		m.Counter("leaksig_pool_evicted_total", "Tenants evicted (idle, LRU, or explicit).", float64(s.Evicted))
		m.Gauge("leaksig_pool_shard_budget", "Configured global shard budget.", float64(s.ShardBudget))
		m.Gauge("leaksig_pool_shards_in_use", "Worker shards running across live tenants; above the shard budget under budget pressure.", float64(s.ShardsInUse))
		writeEngineSnapshot(m, s.Aggregate, nil)
		tenants := make([]string, 0, len(s.PerTenant))
		for k := range s.PerTenant {
			tenants = append(tenants, k)
		}
		sort.Strings(tenants)
		for _, k := range tenants {
			writeEngineSnapshot(m, s.PerTenant[k], []Label{label("tenant", k)})
		}
	})
}

// SiggenCollector projects the learner's stats into leaksig_siggen_*
// families. Named-set versions carry the set label; cardinality is
// bounded by the learner's live published names (tenants with retired
// sets drop out of the books, and the label with them).
func SiggenCollector(snap func() siggen.Stats) Collector {
	return CollectorFunc(func(m *MetricWriter) {
		s := snap()
		m.Counter("leaksig_siggen_observed_total", "Misses admitted past the filter into the intake queue.", float64(s.Observed))
		m.Counter("leaksig_siggen_sink_dropped_total", "Misses dropped at the sink (intake queue full).", float64(s.SinkDropped))
		m.Counter("leaksig_siggen_admitted_total", "Intake samples routed to a reservoir.", float64(s.Admitted))
		m.Counter("leaksig_siggen_sampled_total", "Packets stored by a reservoir.", float64(s.Sampled))
		m.Counter("leaksig_siggen_overflow_tenants_total", "Admissions routed to the shared overflow reservoir.", float64(s.OverflowTenants))
		m.Gauge("leaksig_siggen_pending_samples", "Packets currently held in reservoirs.", float64(s.PendingSamples))
		m.Gauge("leaksig_siggen_reservoir_tenants", "Tenants with a private reservoir this epoch.", float64(s.Tenants))
		m.Gauge("leaksig_siggen_clusters", "Rolling clusters.", float64(s.Clusters))
		m.Gauge("leaksig_siggen_cluster_members", "Members across rolling clusters.", float64(s.ClusterMembers))
		m.Counter("leaksig_siggen_cluster_rejected_total", "Arrivals dropped by the clusterer (table full, nothing close).", float64(s.ClusterRejected))
		m.Counter("leaksig_siggen_cluster_distances_total", "Full packet distances arrivals paid against medoids.", float64(s.ClusterDistances))
		m.Counter("leaksig_siggen_cluster_pruned_total", "Medoids arrivals skipped on the destination lower bound alone.", float64(s.ClusterPruned))
		m.Gauge("leaksig_siggen_silhouette", "Last compaction's medoid silhouette.", s.Silhouette)
		m.Counter("leaksig_siggen_epochs_total", "Generation epochs run.", float64(s.Epochs))
		m.Gauge("leaksig_siggen_candidates", "Candidate signatures in the last distillation.", float64(s.Candidates))
		m.Gauge("leaksig_siggen_rejected_bayes", "Candidates rejected by the Bayes gate in the last distillation.", float64(s.RejectedBayes))
		m.Gauge("leaksig_siggen_rejected_fp", "Candidates rejected by the held-out FP gate in the last distillation.", float64(s.RejectedFP))
		m.Gauge("leaksig_siggen_accepted", "Candidates accepted in the last distillation.", float64(s.Accepted))
		m.Gauge("leaksig_siggen_catalog_signatures", "Signatures currently published (or publishable).", float64(s.Catalog))
		m.Counter("leaksig_siggen_retired_signatures_total", "Signatures retired because every source cluster went stale.", float64(s.RetiredSig))
		m.Counter("leaksig_siggen_publishes_total", "Global-set publishes.", float64(s.Publishes))
		m.Counter("leaksig_siggen_named_publishes_total", "Per-tenant named-set publishes.", float64(s.NamedPublishes))
		m.Counter("leaksig_siggen_publish_errors_total", "Failed publish round trips.", float64(s.PublishErrors))
		m.Gauge("leaksig_siggen_set_version", "Last published version, per set (the default set is the empty label).", float64(s.LastVersion), label("set", ""))
		names := make([]string, 0, len(s.NamedVersions))
		for k := range s.NamedVersions {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m.Gauge("leaksig_siggen_set_version", "Last published version, per set (the default set is the empty label).", float64(s.NamedVersions[k]), label("set", k))
		}
	})
}

// SigserverCollector projects the signature server's stats into
// leaksig_sigserver_* families, every set under its name (the default
// set is the empty label). Cardinality is bounded by the server's named
// set cap.
func SigserverCollector(snap func() sigserver.ServerStats) Collector {
	return CollectorFunc(func(m *MetricWriter) {
		s := snap()
		m.Gauge("leaksig_sigserver_seq", "Catalog sequence: publishes to any set.", float64(s.Seq))
		emit := func(name string, st sigserver.NamedSetStats) {
			set := label("set", name)
			m.Gauge("leaksig_sigserver_version", "Current published version, per set.", float64(st.Version), set)
			m.Gauge("leaksig_sigserver_signatures", "Signatures in the published set, per set.", float64(st.Signatures), set)
			m.Counter("leaksig_sigserver_publishes_total", "Accepted publishes, per set.", float64(st.Publishes), set)
			m.Counter("leaksig_sigserver_publishes_rejected_total", "Publishes rejected by the strict-increase guard, per set.", float64(st.PublishesRejected), set)
		}
		emit("", sigserver.NamedSetStats{
			Version:           s.Version,
			Signatures:        s.Signatures,
			Publishes:         s.Publishes,
			PublishesRejected: s.PublishesRejected,
		})
		names := make([]string, 0, len(s.Sets))
		for k := range s.Sets {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			emit(k, s.Sets[k])
		}
	})
}

// TracerCollector projects a tracer's per-stage latency histograms into
// the leaksig_stage_seconds family, one stage label per pipeline station,
// plus the tracer's own span accounting. The stage set is fixed, so the
// series catalog never grows, and only sampled spans ever feed the
// histograms — the families cost the hot path nothing.
func TracerCollector(t *trace.Tracer) Collector {
	return CollectorFunc(func(m *MetricWriter) {
		if t == nil {
			return
		}
		for _, s := range t.Snapshot() {
			m.histogram("leaksig_stage_seconds", "Sampled per-stage pipeline latency, by stage.",
				s.Bounds, s.Counts, s.Count, s.SumSeconds, label("stage", s.Stage))
		}
		st := t.Stats()
		m.Counter("leaksig_trace_spans_started_total", "Spans head-sampled in this process.", float64(st.Started))
		m.Counter("leaksig_trace_spans_adopted_total", "Spans continued from an upstream trace ID.", float64(st.Adopted))
		m.Counter("leaksig_trace_spans_finished_total", "Spans flushed into the stage histograms.", float64(st.Finished))
	})
}

// FlightCollector projects a flight recorder's accounting into
// leaksig_flight_* families — how much it has seen, holds, and how often
// its dump trigger fired or was rate-limited.
func FlightCollector(f *trace.Flight) Collector {
	return CollectorFunc(func(m *MetricWriter) {
		if f == nil {
			return
		}
		st := f.Stats()
		m.Counter("leaksig_flight_events_total", "Flight-recorder events ever recorded.", float64(st.Recorded))
		m.Gauge("leaksig_flight_events_held", "Events currently held in the flight rings.", float64(st.Held))
		m.Counter("leaksig_flight_triggers_total", "Flight dump-trigger firings.", float64(st.Triggers))
		m.Counter("leaksig_flight_triggers_throttled_total", "Trigger conditions suppressed by the rate limit.", float64(st.Throttled))
	})
}

// ProxyCollector projects the flow-control proxy's allow/block tallies —
// the decision counters the engine families cannot carry.
func ProxyCollector(stats func() (allowed, blocked int64)) Collector {
	return CollectorFunc(func(m *MetricWriter) {
		allowed, blocked := stats()
		m.Counter("leaksig_proxy_decisions_total", "Proxy policy decisions, by action.", float64(allowed), label("action", "allow"))
		m.Counter("leaksig_proxy_decisions_total", "Proxy policy decisions, by action.", float64(blocked), label("action", "block"))
	})
}

// JournalCollector projects a durable journal's accounting into
// leaksig_journal_* families — append volume, append and fsync errors
// (the "your durability is a lie" signals worth alerting on), recovery
// salvage, and on-disk size.
func JournalCollector(snap func() durable.JournalStats) Collector {
	return CollectorFunc(func(m *MetricWriter) {
		s := snap()
		m.Counter("leaksig_journal_appends_total", "Records appended to the publish journal.", float64(s.Appends))
		m.Counter("leaksig_journal_append_errors_total", "Journal appends that failed (oversized record, closed journal, write error); that publish is not durable.", float64(s.AppendErrors))
		m.Counter("leaksig_journal_fsync_errors_total", "Journal fsync failures (appends kept, durability degraded).", float64(s.FsyncErrors))
		m.Counter("leaksig_journal_recovered_records_total", "Records replayed from the journal at the last open.", float64(s.Recovered))
		m.Counter("leaksig_journal_truncated_bytes_total", "Bytes discarded as a torn or corrupt tail at the last open.", float64(s.TruncatedBytes))
		m.Counter("leaksig_journal_compactions_total", "Journal compaction passes.", float64(s.Compactions))
		m.Gauge("leaksig_journal_size_bytes", "Journal file size.", float64(s.SizeBytes))
	})
}

// BreakerCollector projects a circuit breaker's state and accounting
// under the given breaker label — state as a 0/1/2 gauge
// (closed/open/half_open) so a flat line at 1 reads as a sustained
// outage on the dashboard.
func BreakerCollector(name string, br *resilience.Breaker) Collector {
	return CollectorFunc(func(m *MetricWriter) {
		if br == nil {
			return
		}
		lbl := label("breaker", name)
		var state float64
		switch br.State() {
		case resilience.Open:
			state = 1
		case resilience.HalfOpen:
			state = 2
		}
		st := br.Stats()
		m.Gauge("leaksig_breaker_state", "Circuit breaker state: 0 closed, 1 open, 2 half-open.", state, lbl)
		m.Counter("leaksig_breaker_opens_total", "Transitions into the open state.", float64(st.Opens), lbl)
		m.Counter("leaksig_breaker_failures_total", "Attempt outcomes recorded as failures.", float64(st.Failures), lbl)
		m.Counter("leaksig_breaker_shed_total", "Attempts refused without dialing while open.", float64(st.ShedAttempts), lbl)
	})
}

// FaultCollector projects a chaos injector's tallies into the
// leaksig_faults_injected_total family — so a chaos run's blast radius
// is measurable from the same scrape as its effects. A nil injector
// emits nothing.
func FaultCollector(in *faultinject.Injector) Collector {
	return CollectorFunc(func(m *MetricWriter) {
		if in == nil {
			return
		}
		s := in.Stats()
		const help = "Faults injected by the chaos harness, by kind."
		m.Counter("leaksig_faults_injected_total", help, float64(s.Latencies), label("kind", "latency"))
		m.Counter("leaksig_faults_injected_total", help, float64(s.Errors5xx), label("kind", "error_5xx"))
		m.Counter("leaksig_faults_injected_total", help, float64(s.Resets), label("kind", "reset"))
		m.Counter("leaksig_faults_injected_total", help, float64(s.Partials), label("kind", "partial"))
		m.Counter("leaksig_faults_injected_total", help, float64(s.Blackholes), label("kind", "blackhole"))
	})
}

// BuildInfoCollector emits the constant leaksig_build_info gauge: module
// version and Go toolchain as labels, value 1 — the join key that makes
// fleet rollouts attributable in dashboards.
func BuildInfoCollector() Collector {
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	goversion := runtime.Version()
	return CollectorFunc(func(m *MetricWriter) {
		m.Gauge("leaksig_build_info", "Build metadata: constant 1, labeled with the module version and Go toolchain.", 1,
			label("version", version), label("goversion", goversion))
	})
}

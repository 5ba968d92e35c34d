package engine

import (
	"fmt"
	"sync"
	"time"

	"leaksig/internal/stats"
)

// latencySampleEvery controls queue-to-verdict latency sampling: recording
// a latency costs two clock reads, so only every N-th accepted packet is
// timed. At streaming volumes the sampled quantiles converge on the true
// ones while the hot path stays free of clock calls.
const latencySampleEvery = 64

// latencyWindow is how many recent latency samples each shard retains for
// the quantile snapshot.
const latencyWindow = 1024

// latencyRing is a fixed-size ring of recent latency samples, one per
// shard so recording never contends across shards.
type latencyRing struct {
	mu  sync.Mutex
	buf []int64 // nanoseconds
	n   uint64  // total samples ever recorded
}

func newLatencyRing() *latencyRing {
	return &latencyRing{buf: make([]int64, latencyWindow)}
}

func (r *latencyRing) record(d time.Duration) {
	r.mu.Lock()
	r.buf[r.n%uint64(len(r.buf))] = int64(d)
	r.n++
	r.mu.Unlock()
}

// samples returns the retained window in microseconds, ready for a CDF.
func (r *latencyRing) samples() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.n
	if n > uint64(len(r.buf)) {
		n = uint64(len(r.buf))
	}
	out := make([]int, n)
	for i := uint64(0); i < n; i++ {
		out[i] = int(r.buf[i] / int64(time.Microsecond))
	}
	return out
}

// Snapshot is a point-in-time view of the engine's counters and latency
// distribution.
type Snapshot struct {
	Shards     int   // worker count
	Version    int64 // signature-set version currently live
	Signatures int   // signatures in the live set
	Reloads    int64 // hot reloads applied (generations installed) since construction

	// Compiles counts the signature sets compiled: by this engine itself
	// (at construction and in Reload),
	// or, in a PoolSnapshot's Aggregate, by the pool and all its tenants.
	// A pool tenant following the pool default installs generations the
	// pool compiled, so its Reloads rises while its Compiles does not:
	// one Pool.Reload over N unpinned tenants is N reloads, one compile.
	Compiles int64

	// ReloadGen is the generation ticket of the live set: it increases
	// with every applied reload and may skip the ticket of a concurrent
	// reload that a newer one overtook.
	ReloadGen uint64
	// ReloadIssued is the highest ticket ever handed out. A gap to
	// ReloadGen is a reload still compiling, or one discarded because a
	// newer generation was installed first.
	ReloadIssued uint64
	// LastReload is the compile+install wall time of the last applied
	// reload — the churn-cost signal for the reload-latency metric. For a
	// generation the pool compiled it is measured from the start of that
	// one compile to this engine's install.
	LastReload time.Duration

	Ingested  uint64 // packets accepted by Submit
	Processed uint64 // packets matched and emitted
	Matched   uint64 // processed packets that matched >= 1 signature

	SyncVetted  uint64 // packets vetted inline via MatchPacket (proxy path)
	SyncMatched uint64 // inline vets that matched >= 1 signature

	QueueDepth int           // packets accepted but not yet processed
	Uptime     time.Duration // since construction

	PacketsPerSec float64 // processed / uptime
	MatchRate     float64 // matched / processed, in [0, 1]

	P50 time.Duration // median queue-to-verdict latency (sampled)
	P99 time.Duration // tail queue-to-verdict latency (sampled)
}

// addCounters adds m's lifetime counters to s — how a pool sums its live
// and evicted tenants into one aggregate.
func (s *Snapshot) addCounters(m Snapshot) {
	s.Ingested += m.Ingested
	s.Processed += m.Processed
	s.Matched += m.Matched
	s.SyncVetted += m.SyncVetted
	s.SyncMatched += m.SyncMatched
	s.Reloads += m.Reloads
	s.Compiles += m.Compiles
}

// String renders the snapshot as one log-friendly line.
func (s Snapshot) String() string {
	return fmt.Sprintf(
		"engine: v%d sigs=%d shards=%d reloads=%d in=%d out=%d matched=%d sync=%d/%d queue=%d pps=%.0f matchrate=%.4f p50=%s p99=%s",
		s.Version, s.Signatures, s.Shards, s.Reloads,
		s.Ingested, s.Processed, s.Matched,
		s.SyncMatched, s.SyncVetted,
		s.QueueDepth, s.PacketsPerSec, s.MatchRate, s.P50, s.P99)
}

// ShardStat is one worker shard's share of the engine counters — the
// per-shard breakdown behind Snapshot, for shard-labeled exposition and
// load-balance diagnostics (a hot host hashing every packet onto one
// shard shows up here long before it shows in the aggregate).
type ShardStat struct {
	Processed uint64 // packets this shard matched
	Matched   uint64 // processed packets that matched >= 1 signature
	RingDepth int    // packets occupying the shard's MPSC ring
}

// ShardStats returns the per-shard counters, indexed by shard. It is
// safe to call concurrently with streaming.
func (e *Engine) ShardStats() []ShardStat {
	out := make([]ShardStat, len(e.shards))
	for i, s := range e.shards {
		out[i] = ShardStat{
			Processed: s.processed.Load(),
			Matched:   s.matched.Load(),
			RingDepth: s.ring.len(),
		}
	}
	return out
}

// Metrics assembles a snapshot from the per-shard counters. It is safe to
// call concurrently with streaming.
func (e *Engine) Metrics() Snapshot {
	cs := e.set.Load()
	snap := Snapshot{
		Shards:       len(e.shards),
		Version:      cs.version,
		Signatures:   cs.sigs,
		Reloads:      e.reloads.Load(),
		Compiles:     e.compiles.Load(),
		ReloadGen:    cs.gen,
		ReloadIssued: e.reloadGen.Load(),
		LastReload:   time.Duration(e.lastReloadNs.Load()),
		Ingested:     e.ingested.Load(),
		SyncVetted:   e.syncVetted.Load(),
		SyncMatched:  e.syncMatched.Load(),
		Uptime:       time.Since(e.start),
	}
	var lat []int
	for _, s := range e.shards {
		snap.Processed += s.processed.Load()
		snap.Matched += s.matched.Load()
		lat = append(lat, s.lat.samples()...)
	}
	if pending := snap.Ingested - snap.Processed; pending <= snap.Ingested {
		snap.QueueDepth = int(pending)
	}
	if secs := snap.Uptime.Seconds(); secs > 0 {
		snap.PacketsPerSec = float64(snap.Processed) / secs
	}
	if snap.Processed > 0 {
		snap.MatchRate = float64(snap.Matched) / float64(snap.Processed)
	}
	if len(lat) > 0 {
		cdf := stats.NewCDF(lat)
		snap.P50 = time.Duration(cdf.Quantile(0.50)) * time.Microsecond
		snap.P99 = time.Duration(cdf.Quantile(0.99)) * time.Microsecond
	}
	return snap
}

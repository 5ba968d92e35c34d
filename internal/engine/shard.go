package engine

import (
	"sync/atomic"
	"time"

	"leaksig/internal/detect"
	"leaksig/internal/httpmodel"
	"leaksig/internal/obs/trace"
)

// item is one queued packet with its acceptance order and (when sampled)
// enqueue timestamp.
type item struct {
	p   *httpmodel.Packet
	seq uint64
	enq int64 // unix nanos at acceptance; 0 when the packet is unsampled
}

// shard owns one worker goroutine and the lock-free MPSC ring feeding
// it. Producers push packets straight into the ring (one CAS + one
// store, no mutex, no allocation); the worker drains runs of published
// items into a private buffer, loading the compiled-set pointer once per
// drain so channel traffic, batch slices, and the per-packet atomic load
// are all gone from the hot path.
type shard struct {
	idx  int // position in Engine.shards, for flight-event attribution
	ring *ring

	// target is the adaptive drain limit: how many packets the worker
	// takes per drain, which is also the generation-load amortization
	// unit and the verdict-batch size. The worker doubles it (up to
	// Config.MaxBatch) on every full drain — backlog pays for
	// amortization — and halves it (down to Config.MinBatch) after two
	// consecutive partial drains that empty the ring, so light traffic
	// keeps small batches and low verdict latency without one burst-end
	// drain unlearning the batch size.
	target atomic.Int32

	// sink is this shard's bound consumer; nil when the engine has neither
	// a Sink nor an OnVerdict.
	sink ShardSink

	// shrinkStreak counts consecutive drains that qualified for halving
	// the target. Shrinking waits for two in a row: the single partial
	// drain that ends every burst would otherwise throw away the batch
	// size the backlog just paid to learn, oscillating the target on
	// each producer/worker handoff. Worker-owned, so a plain int.
	shrinkStreak int

	processed atomic.Uint64
	matched   atomic.Uint64
	lat       *latencyRing
}

func newShard(queueDepth, batchSize int) *shard {
	s := &shard{
		ring: newRing(queueDepth),
		lat:  newLatencyRing(),
	}
	s.target.Store(int32(batchSize))
	return s
}

// adapt retunes the drain limit after a drain of n items that left
// occupancy claimed slots behind. Running inside the single consumer,
// updates never race; producers only read target through Metrics.
func (s *shard) adapt(n, occupancy int, cfg Config) {
	t := int(s.target.Load())
	switch {
	// A full drain is the backlog signal: at least a whole target was
	// waiting. Unlike producer-side accumulators, a large target adds no
	// latency — the worker never waits to fill it — so growth does not
	// also require leftover occupancy.
	case n >= t:
		s.shrinkStreak = 0
		if doubled := t * 2; doubled <= cfg.MaxBatch {
			s.target.Store(int32(doubled))
		} else if t < cfg.MaxBatch {
			s.target.Store(int32(cfg.MaxBatch))
		}
	case n <= t/2 && occupancy == 0:
		s.shrinkStreak++
		if s.shrinkStreak < 2 {
			break
		}
		s.shrinkStreak = 0
		if half := t / 2; half >= cfg.MinBatch {
			s.target.Store(int32(half))
		} else if t > cfg.MinBatch {
			s.target.Store(int32(cfg.MinBatch))
		}
	default:
		s.shrinkStreak = 0
	}
}

// run is the worker loop: drain the ring until the engine stops, match
// the drain under one load of the live signature generation, and hand
// the sink the drain's verdicts as one borrowed batch.
//
// The worker owns one detect.Scratch, one verdict slice and one
// matched-ID arena for its whole lifetime, so scan, resolve and verdict
// assembly allocate nothing in the steady state. MatchInto re-sizes the
// scratch whenever the loaded generation differs from the one it was
// last used with, which makes hot reloads safe: a scratch sized for the
// old pattern count can never index the new automaton. Between drains
// the scratch points at no generation, so a parked worker never keeps a
// replaced one reachable.
func (e *Engine) run(s *shard) {
	defer e.wg.Done()
	var sc detect.Scratch
	buf := make([]item, e.cfg.MaxBatch)
	verdicts := make([]Verdict, 0, e.cfg.MaxBatch)
	// ids is the arena behind every Matched slice of the drain in flight,
	// sized for one ID per packet and grown by append past that.
	ids := make([]int, 0, e.cfg.MaxBatch)
	for {
		limit := int(s.target.Load())
		if limit > len(buf) {
			limit = len(buf)
		}
		n := s.ring.drain(buf[:limit])
		if n == 0 {
			// Close sets stopped only after every producer has finished
			// (it holds the write lock first), so stopped + empty ring
			// means no packet can still arrive.
			if e.stopped.Load() && s.ring.empty() {
				return
			}
			s.ring.park(e.stop)
			continue
		}
		cs := e.set.Load()
		verdicts, ids = verdicts[:0], ids[:0]
		var leaks uint64
		for _, it := range buf[:n] {
			// sp is nil for every unsampled packet, so tracing costs the
			// loop one pointer load and compare per stage.
			sp := it.p.Span
			if sp != nil {
				sp.Stamp(trace.StageDrain)
			}
			v := Verdict{Packet: it.p, Seq: it.seq, Version: cs.version}
			if m := cs.eng.MatchInto(it.p, &sc); len(m) > 0 {
				// The scratch-backed slice is reused next packet, so a leak's
				// IDs move into the arena. When append outgrows the arena,
				// verdicts already cut from the old array keep it alive and
				// stay correct. The capacity clamp keeps a consumer's append
				// from bleeding into its neighbor's IDs.
				off := len(ids)
				ids = append(ids, m...)
				v.Matched = ids[off:len(ids):len(ids)]
				leaks++
			}
			if it.enq != 0 {
				v.Latency = time.Duration(time.Now().UnixNano() - it.enq)
				s.lat.record(v.Latency)
			}
			if sp != nil {
				sp.Stamp(trace.StageMatch)
			}
			verdicts = append(verdicts, v)
		}
		if s.sink != nil {
			s.sink.Batch(verdicts)
		}
		// Counted after delivery, so Flush returning means every accepted
		// packet's verdict has reached the sink.
		s.processed.Add(uint64(n))
		s.matched.Add(leaks)
		// Sink delivery done: stamp and release every sampled span in the
		// drain. A sink that keeps a packet must Hold its span inside Batch
		// (the learner intake does) or use the Trace ID afterwards.
		for _, it := range buf[:n] {
			if sp := it.p.Span; sp != nil {
				sp.Stamp(trace.StageSink)
				sp.Finish()
			}
		}
		t0 := s.target.Load()
		s.adapt(n, s.ring.len(), e.cfg)
		if t1 := s.target.Load(); t1 != t0 {
			e.cfg.Flight.Record(trace.FlightEvent{
				Kind: trace.KindBatchTarget, Shard: s.idx, Value: int64(t1),
			})
		}
	}
}

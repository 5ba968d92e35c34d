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

// maxDrain bounds how many packets a worker takes from its ring per
// pass: the size of its item buffer, verdict slice and matched-ID arena.
// A worker never waits to fill a drain — it takes what is published —
// so the bound caps the batch a sink is handed, not the latency of a
// lone packet. Below maxDrain the bound is Config.QueueDepth.
const maxDrain = 512

// shard owns one worker goroutine and the lock-free MPSC ring feeding
// it. Producers push packets straight into the ring (one CAS + one
// store, no mutex, no allocation); the worker drains runs of published
// items into a private buffer, loading the compiled-set pointer once per
// drain so channel traffic, batch slices, and the per-packet atomic load
// are all gone from the hot path.
type shard struct {
	idx  int // position in Engine.shards, for flight-event attribution
	ring *ring

	// sink is this shard's bound consumer; nil when the engine has neither
	// a Sink nor an OnVerdict.
	sink ShardSink

	processed atomic.Uint64
	matched   atomic.Uint64
	lat       *latencyRing
}

func newShard(queueDepth int) *shard {
	return &shard{
		ring: newRing(queueDepth),
		lat:  newLatencyRing(),
	}
}

// run is the worker loop: drain what is published in the ring, up to
// min(QueueDepth, maxDrain) packets, until the engine stops; match the
// drain under one load of the live signature generation, and hand the
// sink the drain's verdicts as one borrowed batch.
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
	bound := min(e.cfg.QueueDepth, maxDrain)
	buf := make([]item, bound)
	verdicts := make([]Verdict, 0, bound)
	// ids is the arena behind every Matched slice of the drain in flight,
	// sized for one ID per packet and grown by append past that.
	ids := make([]int, 0, bound)
	for {
		n := s.ring.drain(buf)
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
	}
}

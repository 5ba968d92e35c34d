package engine

import (
	"sync"
	"sync/atomic"
)

// Sink receives match results from the engine's shard workers. Bind is
// called once per shard at engine construction, before any packet flows,
// so an implementation can hand every worker private state — aggregation
// then happens at snapshot time, never on the hot path.
//
// The adapters in this file cover the common consumers: BatchCallbackSink
// wraps a function (and callbackSink, Config.OnVerdict's form, a
// per-verdict one), CountSink keeps per-shard tallies, TeeSink fans one
// delivery out to several sinks.
type Sink interface {
	// Bind returns shard i's private consumer (0 <= i < shards). It is
	// called sequentially during New, once per shard.
	Bind(shard, shards int) ShardSink
}

// ShardSink is one shard's verdict consumer, and Batch is the only thing
// a shard worker produces: one call per drain with that drain's verdicts
// in shard order.
//
// The batch is borrowed. vs and every Matched slice in it live in
// worker-owned memory that the next drain overwrites, so they are valid
// only for the duration of the call: a consumer copies what it keeps and
// must not modify vs (a tee hands the same slice to every child). Batch
// runs on the shard's worker goroutine; an implementation that shares
// state across shards synchronizes it itself.
type ShardSink interface {
	Batch(vs []Verdict)
}

// BatchCallbackSink adapts a per-batch function to the Sink interface —
// the borrowed batch as is, with ShardSink's rules: the slice is valid
// only during the call, and fn runs on shard worker goroutines
// concurrently, so it must be safe for that and copy anything it keeps.
func BatchCallbackSink(fn func([]Verdict)) Sink { return batchCallbackSink(fn) }

type batchCallbackSink func([]Verdict)

func (s batchCallbackSink) Bind(shard, shards int) ShardSink { return s }
func (s batchCallbackSink) Batch(vs []Verdict)               { s(vs) }

// callbackSink adapts a per-verdict function to the Sink interface —
// the sink form of Config.OnVerdict. Every verdict handed to fn owns its
// Matched slice (a leak costs one copy), so fn may keep verdicts for as
// long as it likes. The function is shared by every shard and must be
// safe for concurrent use.
type callbackSink func(Verdict)

func (s callbackSink) Bind(shard, shards int) ShardSink { return s }

func (s callbackSink) Batch(vs []Verdict) {
	for _, v := range vs {
		if len(v.Matched) > 0 {
			v.Matched = append([]int(nil), v.Matched...)
		}
		s(v)
	}
}

// TeeSink fans every batch out to several sinks in argument order — e.g.
// a CountSink for cheap totals plus a siggen miss sink feeding the online
// signature generator. Nil sinks are skipped; a tee of nothing is nil.
func TeeSink(sinks ...Sink) Sink {
	var live teeSink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

type teeSink []Sink

func (t teeSink) Bind(shard, shards int) ShardSink {
	bound := make(teeShardSink, len(t))
	for i, s := range t {
		bound[i] = s.Bind(shard, shards)
	}
	return bound
}

type teeShardSink []ShardSink

func (t teeShardSink) Batch(vs []Verdict) {
	for _, s := range t {
		s.Batch(vs)
	}
}

// countShardPad sizes the padding that keeps each shard's counters on
// their own cache line, so concurrent shards never write-share a line.
const countShardPad = 64

// CountSink aggregates per-shard packet and leak tallies with no
// cross-shard contention: two atomic adds per drain. Construct with
// NewCountSink, pass as Config.Sink, and read the aggregate with Totals.
// One CountSink may back several engines (e.g. as a Pool's template
// sink), in which case Totals spans all of them; same-index shards then
// share a slot, which stays correct because the counters are atomic.
type CountSink struct {
	mu     sync.Mutex // serializes Bind growth
	shards atomic.Pointer[[]*countShard]
}

type countShard struct {
	packets atomic.Uint64
	leaks   atomic.Uint64
	_       [countShardPad - 16]byte
}

// NewCountSink returns an empty count sink ready to be bound.
func NewCountSink() *CountSink { return &CountSink{} }

// Bind implements Sink.
func (c *CountSink) Bind(shard, shards int) ShardSink {
	c.mu.Lock()
	defer c.mu.Unlock()
	var cur []*countShard
	if p := c.shards.Load(); p != nil {
		cur = *p
	}
	if len(cur) <= shard {
		grown := make([]*countShard, shards)
		copy(grown, cur)
		for i := len(cur); i < len(grown); i++ {
			grown[i] = new(countShard)
		}
		c.shards.Store(&grown)
		cur = grown
	}
	return (*countShardSink)(cur[shard])
}

// Totals returns the packets processed and the packets that matched at
// least one signature, summed across shards. It is safe to call while
// streaming; the two numbers are each internally consistent but may lag
// one another by in-flight packets.
func (c *CountSink) Totals() (packets, leaks uint64) {
	if p := c.shards.Load(); p != nil {
		for _, s := range *p {
			packets += s.packets.Load()
			leaks += s.leaks.Load()
		}
	}
	return packets, leaks
}

// countShardSink is one shard's slot, viewed through the ShardSink
// interface.
type countShardSink countShard

func (s *countShardSink) Batch(vs []Verdict) {
	var leaks uint64
	for i := range vs {
		if len(vs[i].Matched) > 0 {
			leaks++
		}
	}
	s.packets.Add(uint64(len(vs)))
	s.leaks.Add(leaks)
}

package engine

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// gateSink wedges shard 0's verdict consumer on a gate channel and
// counts verdicts on every other shard — the instrument for the
// isolation pin below.
type gateSink struct {
	gate    chan struct{}
	entered chan struct{}
	once    atomic.Bool
	sibling atomic.Uint64
}

func (g *gateSink) Bind(shard, shards int) ShardSink {
	if shard == 0 {
		return &gateShardSink{g}
	}
	return &siblingShardSink{g}
}

type gateShardSink struct{ g *gateSink }

func (s *gateShardSink) Batch([]Verdict) {
	if s.g.once.CompareAndSwap(false, true) {
		close(s.g.entered)
	}
	<-s.g.gate
}

type siblingShardSink struct{ g *gateSink }

func (s *siblingShardSink) Batch(vs []Verdict) { s.g.sibling.Add(uint64(len(vs))) }

// TestStalledSinkIsolatesToOwnShard pins per-shard isolation: a sink
// that stalls on shard 0 backs up only shard 0's ring. Packets hashed to
// shard 1 keep flowing at full rate — sibling shards share no lock, no
// channel, and no ring with the stalled one.
func TestStalledSinkIsolatesToOwnShard(t *testing.T) {
	g := &gateSink{gate: make(chan struct{}), entered: make(chan struct{})}
	e := New(tokenSet(1, "x-token"), Config{
		Shards: 2, QueueDepth: 16,
		Sink: g,
	})

	// Host affinity is stable, so probe one host per shard.
	var host0, host1 string
	for i := 0; host0 == "" || host1 == ""; i++ {
		if i > 1<<16 {
			t.Fatal("could not find hosts hashing to both shards")
		}
		h := fmt.Sprintf("h%d.example", i)
		switch e.shardFor(pkt(0, h, ""), 0) {
		case e.shards[0]:
			if host0 == "" {
				host0 = h
			}
		case e.shards[1]:
			if host1 == "" {
				host1 = h
			}
		}
	}

	// Wedge shard 0's worker in its sink, then fill its ring: a producer
	// for shard 0 blocks there, far short of its 256 packets.
	if err := e.Submit(pkt(0, host0, "x-token")); err != nil {
		t.Fatal(err)
	}
	<-g.entered
	stalled := make(chan struct{})
	go func() {
		defer close(stalled)
		for i := 0; i < 256; i++ {
			if err := e.Submit(pkt(int64(1+i), host0, "x-token")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	ring0 := e.shards[0].ring
	for deadline := time.Now().Add(10 * time.Second); ring0.len() < len(ring0.slots); {
		if time.Now().After(deadline) {
			t.Fatal("shard 0's ring never filled behind its stalled sink")
		}
		time.Sleep(time.Millisecond)
	}

	// Shard 1 must absorb a full stream — far more packets than any
	// shared queue could hold — while its sibling is dead in the water.
	const n = 5000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if err := e.Submit(pkt(int64(1000+i), host1, "x-token")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("shard 1 submits starved behind shard 0's stalled sink")
	}
	deadline := time.Now().Add(10 * time.Second)
	for g.sibling.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("shard 1 processed %d of %d while shard 0 stalled", g.sibling.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}

	select {
	case <-stalled:
		t.Fatal("shard 0's producer finished while its sink was stalled")
	default:
	}
	close(g.gate)
	<-stalled
	e.Close()
	if m := e.Metrics(); m.Processed != m.Ingested {
		t.Errorf("processed %d != ingested %d after release", m.Processed, m.Ingested)
	}
}

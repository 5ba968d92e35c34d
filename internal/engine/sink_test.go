package engine

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// sinkWorkload streams n packets, every third a leak, through an engine
// built by mk and returns it closed.
func sinkWorkload(t *testing.T, n int, cfg Config) *Engine {
	t.Helper()
	e := New(tokenSet(1, "udid=f3a9c1d2"), cfg)
	for i := 0; i < n; i++ {
		payload := "zone=1"
		if i%3 == 0 {
			payload = "udid=f3a9c1d2"
		}
		if err := e.Submit(pkt(int64(i), fmt.Sprintf("h%d.example.com", i%11), payload)); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	return e
}

func TestCountSinkTotals(t *testing.T) {
	const n = 900
	sink := NewCountSink()
	e := sinkWorkload(t, n, Config{Shards: 4, Sink: sink})
	packets, leaks := sink.Totals()
	if packets != n {
		t.Fatalf("count sink saw %d packets, want %d", packets, n)
	}
	if want := uint64(n / 3); leaks != want {
		t.Fatalf("count sink saw %d leaks, want %d", leaks, want)
	}
	m := e.Metrics()
	if m.Processed != packets || m.Matched != leaks {
		t.Fatalf("sink totals (%d, %d) disagree with metrics (%d, %d)",
			packets, leaks, m.Processed, m.Matched)
	}
}

// TestCountSinkSharedAcrossEngines is the pool-template scenario: one sink
// bound by two engines with different shard counts aggregates both.
func TestCountSinkSharedAcrossEngines(t *testing.T) {
	sink := NewCountSink()
	mk := func(shards, n int) {
		e := New(tokenSet(1, "udid=f3a9c1d2"), Config{Shards: shards, Sink: sink})
		for i := 0; i < n; i++ {
			if err := e.Submit(pkt(int64(i), "a.example.com", "udid=f3a9c1d2")); err != nil {
				t.Fatal(err)
			}
		}
		e.Close()
	}
	mk(1, 100)
	mk(4, 200)
	packets, leaks := sink.Totals()
	if packets != 300 || leaks != 300 {
		t.Fatalf("shared sink totals = (%d, %d), want (300, 300)", packets, leaks)
	}
}

func TestTeeSinkFansOut(t *testing.T) {
	const n = 600
	count := NewCountSink()
	var cb atomic.Uint64
	sinkWorkload(t, n, Config{Shards: 2,
		Sink: TeeSink(count, CallbackSink(func(v Verdict) {
			if v.Leak() {
				cb.Add(1)
			}
		}))})
	packets, leaks := count.Totals()
	if packets != n || leaks != n/3 {
		t.Fatalf("count side saw (%d, %d), want (%d, %d)", packets, leaks, n, n/3)
	}
	if cb.Load() != n/3 {
		t.Fatalf("callback side saw %d leaks, want %d", cb.Load(), n/3)
	}
}

// TestTeeSinkUnwraps: nil children are skipped (Config.Sink is often
// nil), a tee of nothing is nil, and a single child comes back as is.
func TestTeeSinkUnwraps(t *testing.T) {
	count := NewCountSink()
	if TeeSink() != nil || TeeSink(nil, nil) != nil {
		t.Fatal("empty tee should be nil")
	}
	if TeeSink(nil, count) != Sink(count) {
		t.Fatal("single-child tee should unwrap")
	}
}

func TestMatchPacketSyncTelemetry(t *testing.T) {
	e := New(tokenSet(1, "udid=f3a9c1d2"), Config{Shards: 1})
	defer e.Close()
	e.MatchPacket(pkt(1, "a.example.com", "udid=f3a9c1d2"))
	e.MatchPacket(pkt(2, "a.example.com", "zone=1"))
	m := e.Metrics()
	if m.SyncVetted != 2 || m.SyncMatched != 1 {
		t.Fatalf("sync telemetry = %d/%d, want 2/1", m.SyncMatched, m.SyncVetted)
	}
	if m.Ingested != 0 || m.Processed != 0 {
		t.Fatalf("inline vets must not touch the stream counters: %+v", m)
	}
}

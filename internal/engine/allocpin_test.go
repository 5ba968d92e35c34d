package engine

import (
	"sync/atomic"
	"testing"

	"leaksig/internal/httpmodel"
	"leaksig/internal/obs/trace"
)

// makeAllocPinPackets prebuilds a mixed clean/leaking packet stream so
// the AllocsPerRun loops below measure the engine, not packet
// fabrication.
func makeAllocPinPackets(n int) []*httpmodel.Packet {
	pkts := make([]*httpmodel.Packet, n)
	for i := range pkts {
		if i%3 == 0 {
			pkts[i] = scratchTestPacket(i)
		} else {
			pkts[i] = &httpmodel.Packet{
				ID: int64(i), Host: "ads.example", Method: "GET",
				Path: "/benign", Proto: "HTTP/1.1",
			}
		}
	}
	return pkts
}

// TestCountOnlyPathZeroAlloc pins streaming into a CountSink at zero
// allocations per packet: Submit writes into the ring, the worker drains
// with its persistent buffer and scratch, verdicts are assembled in its
// own arena, and the CountSink bumps two atomics per drain. The
// threshold tolerates stray runtime allocations (well under one per
// drain) while still failing on any real per-packet or per-batch cost.
func TestCountOnlyPathZeroAlloc(t *testing.T) {
	sink := NewCountSink()
	e := New(scratchTestSet(64), Config{
		Shards: 1, QueueDepth: 1024, Sink: sink,
	})
	defer e.Close()

	const batch = 256
	pkts := makeAllocPinPackets(batch)
	run := func() {
		for _, p := range pkts {
			if err := e.Submit(p); err != nil {
				t.Fatal(err)
			}
		}
		e.Flush()
	}
	run() // warm: size the scratch

	allocs := testing.AllocsPerRun(20, run)
	if perPacket := allocs / batch; perPacket >= 0.01 {
		t.Errorf("count-only path allocates %.4f per packet (%.1f per %d), want 0", perPacket, allocs, batch)
	}
}

// TestCountOnlyPathZeroAllocWithTracing pins the same count-only path
// with the tracing plane compiled in and attached — tracer at sample 0
// on every packet, a flight recorder on the config — and demands it
// still allocates nothing per packet. This is the contract that lets
// tracing ship always-linked: the unsampled cost is one nil check on
// p.Span per stage hook, never a heap object.
func TestCountOnlyPathZeroAllocWithTracing(t *testing.T) {
	sink := NewCountSink()
	tracer := trace.NewTracer(0) // sampling off: BeginTrace never starts
	e := New(scratchTestSet(64), Config{
		Shards: 1, QueueDepth: 1024, Sink: sink,
		Flight: trace.NewFlight(1, 0),
	})
	defer e.Close()

	const batch = 256
	pkts := makeAllocPinPackets(batch)
	run := func() {
		for _, p := range pkts {
			p.BeginTrace(tracer)
			if err := e.Submit(p); err != nil {
				t.Fatal(err)
			}
		}
		e.Flush()
	}
	run() // warm: size the scratch

	allocs := testing.AllocsPerRun(20, run)
	if perPacket := allocs / batch; perPacket >= 0.01 {
		t.Errorf("count-only path with tracing attached allocates %.4f per packet (%.1f per %d), want 0", perPacket, allocs, batch)
	}
	if st := tracer.Stats(); st.Started != 0 {
		t.Errorf("sample-0 tracer started %d spans, want 0", st.Started)
	}
}

// TestBatchVerdictPathAllocBudget pins verdict delivery: a
// BatchCallbackSink consumer costs at most 2 allocations per packet in
// the steady state. Measured it is ~0, because the verdict slice and the
// matched-ID arena belong to the worker and are reused every drain.
func TestBatchVerdictPathAllocBudget(t *testing.T) {
	var total atomic.Uint64
	e := New(scratchTestSet(64), Config{
		Shards: 1, QueueDepth: 1024,
		Sink: BatchCallbackSink(func(vs []Verdict) { total.Add(uint64(len(vs))) }),
	})
	defer e.Close()

	const batch = 256
	pkts := makeAllocPinPackets(batch)
	run := func() {
		for _, p := range pkts {
			if err := e.Submit(p); err != nil {
				t.Fatal(err)
			}
		}
		e.Flush()
	}
	run() // warm the arena and scratch

	allocs := testing.AllocsPerRun(20, run)
	if perPacket := allocs / batch; perPacket > 2 {
		t.Errorf("batch verdict path allocates %.4f per packet, budget is 2", perPacket)
	}
	if total.Load() == 0 {
		t.Fatal("batch sink never saw a verdict")
	}
}

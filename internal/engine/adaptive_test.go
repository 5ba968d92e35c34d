package engine

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestAdaptiveBatchGrowsUnderBacklog keeps a producer ahead of the single
// worker: every full drain that leaves the ring still occupied must
// double the drain target until it pins at MaxBatch.
func TestAdaptiveBatchGrowsUnderBacklog(t *testing.T) {
	e := New(tokenSet(1, "x-token"), Config{
		Shards:     1,
		BatchSize:  4,
		MinBatch:   2,
		MaxBatch:   64,
		QueueDepth: 256,
		OnVerdict:  func(Verdict) {},
	})
	defer e.Close()
	s := e.shards[0]
	// Blocking submits keep the ring saturated faster than the worker
	// can shrink it; each full drain with leftover occupancy grows the
	// target toward the ceiling.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; int(s.target.Load()) != 64; i++ {
		if err := e.Submit(pkt(int64(i), "a.example.com", "x-token")); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch target stuck at %d after sustained backlog, want ceiling 64", s.target.Load())
		}
	}
}

// TestAdaptiveBatchShrinksWhenDrained sends lone packets through a large
// initial drain target: every partial drain that empties the ring must
// halve the target until it pins at MinBatch.
func TestAdaptiveBatchShrinksWhenDrained(t *testing.T) {
	verdicts := make(chan Verdict, 64)
	e := New(tokenSet(1, "x-token"), Config{
		Shards:    1,
		BatchSize: 64,
		MinBatch:  4,
		MaxBatch:  64,
		OnVerdict: func(v Verdict) { verdicts <- v },
	})
	defer e.Close()
	s := e.shards[0]
	deadline := time.After(5 * time.Second)
	for i := 0; int(s.target.Load()) > 4; i++ {
		if err := e.Submit(pkt(int64(i), "a.example.com", "zone=1")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-verdicts: // a lone-packet drain emptied the ring
		case <-deadline:
			t.Fatalf("batch target stuck at %d, want floor 4", s.target.Load())
		}
	}
	if got := int(s.target.Load()); got < 4 {
		t.Fatalf("batch target %d fell below the floor 4", got)
	}
}

// TestAdaptiveBatchDisabled pins the target when MinBatch = MaxBatch =
// BatchSize, preserving the fixed-batch behavior: the blocking-submit
// backlog that grows an adaptive target (TestAdaptiveBatchGrowsUnderBacklog)
// leaves it at 4.
func TestAdaptiveBatchDisabled(t *testing.T) {
	e := New(tokenSet(1, "x-token"), Config{
		Shards:     1,
		BatchSize:  4,
		MinBatch:   4,
		MaxBatch:   4,
		QueueDepth: 64,
	})
	defer e.Close()
	for i := 0; i < 256; i++ {
		if err := e.Submit(pkt(int64(i), "a.example.com", "x-token")); err != nil {
			t.Fatal(err)
		}
		if got := int(e.shards[0].target.Load()); got != 4 {
			t.Fatalf("pinned batch target moved to %d", got)
		}
	}
	e.Flush()
	if got := int(e.shards[0].target.Load()); got != 4 {
		t.Errorf("pinned batch target moved to %d", got)
	}
}

// TestConfigBatchBounds checks the default and clamping rules that keep
// MinBatch <= BatchSize <= MaxBatch <= QueueDepth.
func TestConfigBatchBounds(t *testing.T) {
	cases := []struct {
		in            Config
		min, ini, max int
	}{
		{Config{}, 8, 64, 512},
		{Config{BatchSize: 1, QueueDepth: 1}, 1, 1, 1},
		{Config{BatchSize: 16, MinBatch: 32}, 32, 32, 128},
		{Config{BatchSize: 64, MaxBatch: 32}, 8, 32, 32},
		{Config{BatchSize: 64, QueueDepth: 128}, 8, 64, 128},
	}
	for _, c := range cases {
		got := c.in.withDefaults()
		if got.MinBatch != c.min || got.BatchSize != c.ini || got.MaxBatch != c.max {
			t.Errorf("%+v: bounds (%d, %d, %d), want (%d, %d, %d)",
				c.in, got.MinBatch, got.BatchSize, got.MaxBatch, c.min, c.ini, c.max)
		}
		if got.MinBatch > got.BatchSize || got.BatchSize > got.MaxBatch || got.MaxBatch > got.QueueDepth {
			t.Errorf("%+v: inconsistent bounds %+v", c.in, got)
		}
	}
}

// TestAdaptiveBatchVerdictParity re-checks batch-vs-streaming parity with
// aggressive adaptation, so resizing never loses or duplicates packets.
func TestAdaptiveBatchVerdictParity(t *testing.T) {
	set := tokenSet(1, "udid=f3a9c1d2")
	n := 3000
	var got atomic.Uint64
	e := New(set, Config{
		Shards:    2,
		BatchSize: 8,
		MinBatch:  1,
		MaxBatch:  256,
		OnVerdict: func(v Verdict) {
			if v.Leak() {
				got.Add(1)
			}
		},
	})
	want := 0
	for i := 0; i < n; i++ {
		payload := "zone=1"
		if i%5 == 0 {
			payload = "udid=f3a9c1d2"
			want++
		}
		if err := e.Submit(pkt(int64(i), fmt.Sprintf("h%d", i%9), payload)); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	if int(got.Load()) != want {
		t.Fatalf("leaks under adaptive batching = %d, want %d", got.Load(), want)
	}
}

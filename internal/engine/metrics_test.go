package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestLatencyRingWraps(t *testing.T) {
	r := newLatencyRing()
	for i := 0; i < latencyWindow*2; i++ {
		r.record(time.Duration(i) * time.Microsecond)
	}
	s := r.samples()
	if len(s) != latencyWindow {
		t.Fatalf("retained %d samples, want %d", len(s), latencyWindow)
	}
	// Every retained sample must come from the second pass.
	for _, v := range s {
		if v < latencyWindow {
			t.Fatalf("stale sample %d survived the wrap", v)
		}
	}
}

func TestLatencyRingPartial(t *testing.T) {
	r := newLatencyRing()
	if got := r.samples(); len(got) != 0 {
		t.Fatalf("empty ring returned %d samples", len(got))
	}
	r.record(5 * time.Microsecond)
	r.record(7 * time.Microsecond)
	if got := r.samples(); len(got) != 2 {
		t.Fatalf("partial ring returned %d samples, want 2", len(got))
	}
}

func TestMetricsSnapshot(t *testing.T) {
	e := New(tokenSet(3, "x-token"), Config{Shards: 2})
	// Enough packets to cross several latency sampling strides.
	const n = 4 * latencySampleEvery
	for i := 0; i < n; i++ {
		payload := "zone=1"
		if i%2 == 0 {
			payload = "x-token"
		}
		if err := e.Submit(pkt(int64(i), fmt.Sprintf("h%d.example.com", i%5), payload)); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	m := e.Metrics()
	if m.Ingested != n || m.Processed != n {
		t.Fatalf("ingested=%d processed=%d, want %d", m.Ingested, m.Processed, n)
	}
	if m.Matched != n/2 {
		t.Errorf("matched=%d, want %d", m.Matched, n/2)
	}
	if m.MatchRate < 0.49 || m.MatchRate > 0.51 {
		t.Errorf("match rate = %v", m.MatchRate)
	}
	if m.QueueDepth != 0 {
		t.Errorf("queue depth after Close = %d", m.QueueDepth)
	}
	if m.Version != 3 || m.Signatures != 1 || m.Shards != 2 {
		t.Errorf("identity fields: %+v", m)
	}
	if m.PacketsPerSec <= 0 {
		t.Errorf("packets/s = %v", m.PacketsPerSec)
	}
	if m.P50 > m.P99 {
		t.Errorf("p50 %v > p99 %v", m.P50, m.P99)
	}
	line := m.String()
	for _, want := range []string{"engine:", "pps=", "p99="} {
		if !strings.Contains(line, want) {
			t.Errorf("snapshot line %q missing %q", line, want)
		}
	}
}

package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leaksig/internal/capture"
	"leaksig/internal/detect"
	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
)

// tokenSet builds a one-signature set whose signature requires every token.
func tokenSet(version int64, tokens ...string) *signature.Set {
	return &signature.Set{
		Version: version,
		Signatures: []*signature.Signature{
			{ID: 1, Tokens: tokens, ClusterSize: 2},
		},
	}
}

// pkt fabricates a GET packet whose path carries the payload.
func pkt(id int64, host, payload string) *httpmodel.Packet {
	return &httpmodel.Packet{
		ID:     id,
		Host:   host,
		Method: "GET",
		Path:   "/track?" + payload,
		Proto:  "HTTP/1.1",
	}
}

func TestMatchSetParityWithBatch(t *testing.T) {
	set := tokenSet(1, "udid=f3a9c1d2")
	var packets []*httpmodel.Packet
	for i := 0; i < 500; i++ {
		payload := "zone=1"
		if i%3 == 0 {
			payload = "udid=f3a9c1d2"
		}
		packets = append(packets, pkt(int64(i), fmt.Sprintf("ad%d.example.com", i%7), payload))
	}
	cap := capture.New(packets)
	want := detect.MatchSetWith(detect.NewEngine(set), cap)
	for _, shards := range []int{1, 4} {
		got := matchSet(set, cap, Config{Shards: shards})
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d verdicts, want %d", shards, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: verdict[%d] = %v, want %v", shards, i, got[i], want[i])
			}
		}
	}
}

// TestHotReloadNoDropsVerdictsFlip is the rollover contract: packets
// streamed before a reload are judged under v1, packets submitted after
// Reload returns are judged under v2, and no packet is ever dropped.
func TestHotReloadNoDropsVerdictsFlip(t *testing.T) {
	v1 := tokenSet(1, "alpha-token")
	v2 := tokenSet(2, "beta-token")

	var mu sync.Mutex
	verdicts := make(map[uint64]Verdict)
	e := New(v1, Config{
		Shards: 4,
		OnVerdict: func(v Verdict) {
			mu.Lock()
			verdicts[v.Seq] = v
			mu.Unlock()
		},
	})

	const half = 1000
	// Every packet carries the v2 token only: invisible to v1, a leak to v2.
	for i := 0; i < half; i++ {
		if err := e.Submit(pkt(int64(i), fmt.Sprintf("h%d.example.com", i%13), "beta-token")); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush() // everything so far decided under v1

	e.Reload(v2)
	for i := half; i < 2*half; i++ {
		if err := e.Submit(pkt(int64(i), fmt.Sprintf("h%d.example.com", i%13), "beta-token")); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()

	if len(verdicts) != 2*half {
		t.Fatalf("dropped packets across reload: %d verdicts, want %d", len(verdicts), 2*half)
	}
	for seq, v := range verdicts {
		if seq < half {
			if v.Version != 1 || v.Leak() {
				t.Fatalf("seq %d: pre-reload verdict %+v, want clean under v1", seq, v)
			}
		} else {
			if v.Version != 2 || !v.Leak() {
				t.Fatalf("seq %d: post-reload verdict %+v, want leak under v2", seq, v)
			}
		}
	}
	m := e.Metrics()
	if m.Reloads != 1 || m.Version != 2 {
		t.Errorf("metrics after reload: reloads=%d version=%d", m.Reloads, m.Version)
	}
	if m.Processed != 2*half || m.Matched != half {
		t.Errorf("metrics counters: processed=%d matched=%d", m.Processed, m.Matched)
	}
}

// TestConcurrentReloadRace hammers Reload against a concurrent producer
// under the race detector and checks the no-drop invariant holds.
func TestConcurrentReloadRace(t *testing.T) {
	var count atomic.Uint64
	e := New(tokenSet(1, "alpha-token"), Config{
		Shards:    2,
		OnVerdict: func(Verdict) { count.Add(1) },
	})
	const n = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := int64(2); v < 40; v++ {
			e.Reload(tokenSet(v, "beta-token"))
			time.Sleep(50 * time.Microsecond)
		}
	}()
	for i := 0; i < n; i++ {
		if err := e.Submit(pkt(int64(i), fmt.Sprintf("h%d", i%31), "beta-token")); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	e.Close()
	if got := count.Load(); got != n {
		t.Fatalf("verdicts = %d, want %d", got, n)
	}
}

func TestShardAffinity(t *testing.T) {
	e := New(nil, Config{Shards: 4})
	defer e.Close()
	hosts := []string{"ads.alpha.com", "cdn.beta.net", "t.gamma.org", "x.delta.io", "m.epsilon.jp"}
	spread := make(map[*shard]bool)
	for _, h := range hosts {
		p := pkt(0, h, "q=1")
		first := e.shardFor(p, 0)
		for seq := uint64(1); seq < 10; seq++ {
			if e.shardFor(p, seq) != first {
				t.Fatalf("host %s not stable across sequences", h)
			}
		}
		spread[first] = true
	}
	if len(spread) < 2 {
		t.Errorf("all %d hosts landed on one shard", len(hosts))
	}

	rr := New(nil, Config{Shards: 4, Affinity: AffinityNone})
	defer rr.Close()
	p := pkt(0, "ads.alpha.com", "q=1")
	if rr.shardFor(p, 0) == rr.shardFor(p, 1) && rr.shardFor(p, 1) == rr.shardFor(p, 2) {
		t.Error("round-robin affinity pinned one shard")
	}
}

func TestSubmitAfterClose(t *testing.T) {
	e := New(nil, Config{Shards: 1})
	e.Close()
	e.Close() // idempotent
	if err := e.Submit(pkt(0, "a.example.com", "q=1")); err != errClosed {
		t.Fatalf("Submit after Close = %v, want errClosed", err)
	}
}

func TestEmptySetMatchesNothing(t *testing.T) {
	var leaks atomic.Uint64
	e := New(nil, Config{Shards: 2, OnVerdict: func(v Verdict) {
		if v.Leak() {
			leaks.Add(1)
		}
	}})
	for i := 0; i < 100; i++ {
		if err := e.Submit(pkt(int64(i), "a.example.com", "udid=f3a9c1d2")); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	if leaks.Load() != 0 {
		t.Fatalf("empty set produced %d leaks", leaks.Load())
	}
}

// TestLonePacketGetsVerdict checks a lone packet gets a verdict without
// further traffic and without a flusher: a ring-queued packet is visible
// to the worker at once: a drain takes what is published and never
// waits to fill its bound.
func TestLonePacketGetsVerdict(t *testing.T) {
	got := make(chan Verdict, 1)
	e := New(tokenSet(1, "x-token"), Config{
		Shards:    1,
		OnVerdict: func(v Verdict) { got <- v },
	})
	defer e.Close()
	if err := e.Submit(pkt(7, "a.example.com", "x-token")); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if !v.Leak() || v.Seq != 0 {
			t.Fatalf("verdict = %+v", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("lone packet never got a verdict")
	}
}

// matchSet streams an entire capture through a fresh engine and returns
// one verdict per packet in order — detect.MatchSetWith's streaming
// equivalent.
func matchSet(set *signature.Set, s *capture.Set, cfg Config) []bool {
	out := make([]bool, s.Len())
	cfg.Sink = BatchCallbackSink(func(vs []Verdict) {
		for _, v := range vs {
			out[v.Seq] = v.Leak()
		}
	})
	e := New(set, cfg)
	for _, p := range s.Packets {
		e.Submit(p) // cannot fail: the engine closes only below
	}
	e.Close()
	return out
}

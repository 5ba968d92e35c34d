package engine

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"weak"

	"leaksig/internal/detect"
	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
)

func scratchTestSet(n int) *signature.Set {
	sigs := make([]*signature.Signature, n)
	for i := range sigs {
		sigs[i] = &signature.Signature{
			ID:     i,
			Tokens: []string{fmt.Sprintf("tok-%04d=", i), "shared="},
		}
	}
	return &signature.Set{Signatures: sigs, Version: int64(n)}
}

func scratchTestPacket(i int) *httpmodel.Packet {
	return &httpmodel.Packet{
		ID:     int64(i),
		Host:   "ads.example",
		Method: "GET",
		Path:   fmt.Sprintf("/a?shared=&tok-%04d=v", i%64),
		Proto:  "HTTP/1.1",
	}
}

// TestSteadyStateScanResolveZeroAlloc asserts the BenchmarkEngineStreaming
// steady state: the per-packet scan+resolve path a shard worker runs —
// MatchInto against the loaded generation with the worker's persistent
// scratch — performs zero allocations once warm, for clean and leaking
// packets alike.
func TestSteadyStateScanResolveZeroAlloc(t *testing.T) {
	cs := compile(scratchTestSet(64))
	var sc detect.Scratch
	leak := scratchTestPacket(3)
	clean := &httpmodel.Packet{Host: "ads.example", Method: "GET", Path: "/benign", Proto: "HTTP/1.1"}
	cs.eng.MatchInto(leak, &sc) // warm: first call sizes the scratch
	for name, p := range map[string]*httpmodel.Packet{"leak": leak, "clean": clean} {
		p := p
		allocs := testing.AllocsPerRun(200, func() {
			cs.eng.MatchInto(p, &sc)
		})
		if allocs != 0 {
			t.Errorf("%s packet: scan+resolve allocated %v per run, want 0", name, allocs)
		}
	}
}

// TestReloadConcurrentScratchSafety hammers Submit and the synchronous
// MatchPacket path while the engine hot-reloads between signature sets of
// very different sizes (different automaton state counts, token counts
// and signature counts). Per-worker scratches and the detect pool must
// re-adopt each new generation rather than index the new automaton with
// stale dimensions; run under -race in CI this also proves the swap is
// publication-safe.
func TestReloadConcurrentScratchSafety(t *testing.T) {
	small := scratchTestSet(2)
	large := scratchTestSet(300)
	e := New(small, Config{Shards: 2, QueueDepth: 256})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // streaming path: per-shard persistent scratch
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.Submit(scratchTestPacket(i)); err != nil {
				return
			}
		}
	}()
	go func() { // sync-vet path: pooled scratch
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ids := e.MatchPacket(scratchTestPacket(i))
			if len(ids) > 1 {
				t.Errorf("sync vet matched %d signatures, want at most 1", len(ids))
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			e.Reload(large)
		} else {
			e.Reload(small)
		}
	}
	close(stop)
	wg.Wait()
	e.Close()

	m := e.Metrics()
	if m.Processed != m.Ingested {
		t.Errorf("processed %d != ingested %d after drain", m.Processed, m.Ingested)
	}
	if m.Reloads < 200 {
		t.Errorf("reloads = %d, want >= 200", m.Reloads)
	}
}

// TestVerdictMatchedStableAcrossPackets guards the retain-forever
// contract of the per-verdict consumers: a verdict kept until after Close
// must still name its own signature, so its Matched may alias neither the
// worker scratch (overwritten by the next packet) nor the worker's arena
// (overwritten by the next drain — every four packets here).
func TestVerdictMatchedStableAcrossPackets(t *testing.T) {
	const n = 256
	for _, c := range []struct {
		name string
		wire func(Config, func(Verdict)) Config
	}{
		{"OnVerdict", func(cfg Config, keep func(Verdict)) Config { cfg.OnVerdict = keep; return cfg }},
		{"CallbackSink", func(cfg Config, keep func(Verdict)) Config { cfg.Sink = CallbackSink(keep); return cfg }},
	} {
		var mu sync.Mutex
		var got []Verdict
		e := New(scratchTestSet(64), c.wire(Config{Shards: 1, QueueDepth: 4}, func(v Verdict) {
			mu.Lock()
			got = append(got, v)
			mu.Unlock()
		}))
		for i := 0; i < n; i++ {
			if err := e.Submit(scratchTestPacket(i)); err != nil {
				t.Fatal(err)
			}
		}
		e.Close()
		if len(got) != n {
			t.Fatalf("%s: got %d verdicts, want %d", c.name, len(got), n)
		}
		for _, v := range got {
			// scratchTestPacket(i) carries exactly signature i%64's tokens.
			if want := int(v.Packet.ID) % 64; len(v.Matched) != 1 || v.Matched[0] != want {
				t.Fatalf("%s: packet %d kept matched %v, want [%d]", c.name, v.Packet.ID, v.Matched, want)
			}
		}
	}
}

// TestIdleWorkerReleasesReplacedGeneration: a hot reload keeps only the
// generation being served. An engine and a pool with eight unpinned
// tenants are each reloaded three times; every worker matches under each
// generation and every engine vets a packet through it before the next
// reload, then all go idle. One collection must leave every replaced
// detect.Engine unreachable: neither a parked worker's scratch nor a
// pooled scratch, nor the runtime's list of used sync.Pools, may keep one.
func TestIdleWorkerReleasesReplacedGeneration(t *testing.T) {
	cfg := Config{Shards: 2, QueueDepth: 64}
	e := New(scratchTestSet(8), cfg)
	defer e.Close()
	p := NewPool(scratchTestSet(8), PoolConfig{Engine: cfg, ShardBudget: 16})
	defer p.Close()
	tenants := make([]string, 8)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant-%d", i)
	}

	var replaced []weak.Pointer[detect.Engine]
	for round := 0; round < 3; round++ {
		for i := 0; i < 32; i++ {
			pe, pp := scratchTestPacket(i), scratchTestPacket(i)
			pe.Host = fmt.Sprintf("h%d.example", i)
			pp.Host = pe.Host
			if err := e.Submit(pe); err != nil {
				t.Fatal(err)
			}
			if err := p.Submit(tenants[i%len(tenants)], pp); err != nil {
				t.Fatal(err)
			}
		}
		e.Flush()
		p.Flush()
		e.Vet(scratchTestPacket(round))
		for _, key := range tenants {
			p.Tenant(key).Vet(scratchTestPacket(round))
		}
		p.mu.RLock()
		replaced = append(replaced, weak.Make(e.set.Load().eng), weak.Make(p.def.eng))
		p.mu.RUnlock()
		e.Reload(scratchTestSet(16 + round))
		p.Reload(scratchTestSet(16 + round))
	}

	runtime.GC()
	kept := 0
	for _, w := range replaced {
		if w.Value() != nil {
			kept++
		}
	}
	if kept > 0 {
		t.Fatalf("%d of %d replaced generations still reachable after one GC with every worker idle", kept, len(replaced))
	}
}

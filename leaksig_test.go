package leaksig

import (
	"math/rand"
	"sync"
	"testing"

	"leaksig/internal/capture"
	"leaksig/internal/engine"
	"leaksig/internal/httpmodel"
)

func TestFacadeEndToEnd(t *testing.T) {
	ds := SyntheticDataset(11, 150, 12000)
	if len(ds.Packets) < 6000 {
		t.Fatalf("packets = %d", len(ds.Packets))
	}
	susp := ds.SuspiciousPackets()
	if len(susp) == 0 {
		t.Fatal("no suspicious packets")
	}
	// Sample a training set, generate signatures, detect over everything.
	rng := rand.New(rand.NewSource(2))
	n := 80
	if n > len(susp) {
		n = len(susp)
	}
	train := make([]*Packet, 0, n)
	for _, i := range rng.Perm(len(susp))[:n] {
		train = append(train, susp[i])
	}
	set := GenerateSignatures(train, Config{})
	if set.Len() == 0 {
		t.Fatal("no signatures generated")
	}
	if set.TrainingSize != n {
		t.Errorf("TrainingSize = %d, want %d", set.TrainingSize, n)
	}
	verdicts := Detect(set, ds.Packets)
	if len(verdicts) != len(ds.Packets) {
		t.Fatalf("verdicts = %d", len(verdicts))
	}
	res := Evaluate(set, ds.Packets, ds.Sensitive, n)
	if res.TruePositiveRate <= 0.3 {
		t.Errorf("TP rate = %v, expected meaningful detection", res.TruePositiveRate)
	}
	if res.FalsePositiveRate > 0.10 {
		t.Errorf("FP rate = %v, too many false alarms", res.FalsePositiveRate)
	}
	// Verdicts and Evaluate must agree on the detected-sensitive count.
	det := 0
	for i, v := range verdicts {
		if v && ds.Sensitive[i] {
			det++
		}
	}
	if det != res.DetectedSensitive {
		t.Errorf("Detect/Evaluate disagree: %d vs %d", det, res.DetectedSensitive)
	}
}

func TestFacadeBuilders(t *testing.T) {
	p := httpmodel.Get("admob.com", "/mads/gma").Query("udid", "f3a9").Build()
	if p.RequestLine() != "GET /mads/gma?udid=f3a9 HTTP/1.1" {
		t.Errorf("builder produced %q", p.RequestLine())
	}
	q := httpmodel.Post("flurry.com", "/aap.do").Form("uid", "x").Build()
	if q.Method != "POST" || string(q.Body) != "uid=x" {
		t.Errorf("post builder produced %+v", q)
	}
}

func TestSyntheticDatasetDeterminism(t *testing.T) {
	a := SyntheticDataset(3, 60, 4000)
	b := SyntheticDataset(3, 60, 4000)
	if len(a.Packets) != len(b.Packets) {
		t.Fatal("nondeterministic size")
	}
	for i := range a.Packets {
		if a.Packets[i].RequestLine() != b.Packets[i].RequestLine() {
			t.Fatal("nondeterministic packets")
		}
		if a.Sensitive[i] != b.Sensitive[i] {
			t.Fatal("nondeterministic labels")
		}
	}
}

// TestDetectStreamParity: the streaming engine must agree verdict-for-
// verdict with the offline facade.
func TestDetectStreamParity(t *testing.T) {
	ds := SyntheticDataset(11, 50, 3000)
	sigs := GenerateSignatures(ds.SuspiciousPackets()[:80], Config{})
	if sigs.Len() == 0 {
		t.Fatal("no signatures")
	}
	batch := Detect(sigs, ds.Packets)
	stream := streamSet(sigs, capture.New(ds.Packets), StreamConfig{Shards: 2})
	if len(stream) != len(batch) {
		t.Fatalf("stream returned %d verdicts, batch %d", len(stream), len(batch))
	}
	for i := range batch {
		if stream[i] != batch[i] {
			t.Fatalf("verdict[%d]: stream %v, batch %v", i, stream[i], batch[i])
		}
	}
}

// streamSet streams an entire capture through a fresh engine and returns
// one verdict per packet in order — Detect's streaming equivalent, and
// the basis of the engine-vs-batch benchmarks.
func streamSet(set *SignatureSet, s *capture.Set, cfg StreamConfig) []bool {
	out := make([]bool, s.Len())
	cfg.Sink = engine.BatchCallbackSink(func(vs []StreamVerdict) {
		for _, v := range vs {
			out[v.Seq] = v.Leak()
		}
	})
	e := engine.New(set, cfg)
	for _, p := range s.Packets {
		e.Submit(p) // cannot fail: the engine closes only below
	}
	e.Close()
	return out
}

// TestFacadePoolAndSink smoke-tests the multi-tenant and streaming
// facade surface: two tenants with private signature sets stay isolated,
// and the verdicts a StreamConfig.OnVerdict func receives agree with the
// signed tenant's tally.
func TestFacadePoolAndSink(t *testing.T) {
	ds := SyntheticDataset(5, 50, 3000)
	sigs := GenerateSignatures(ds.SuspiciousPackets()[:80], Config{})
	if sigs.Len() == 0 {
		t.Fatal("no signatures")
	}

	pool := NewPool(nil, PoolConfig{Engine: StreamConfig{Shards: 2}})
	defer pool.Close()
	pool.ReloadTenant("signed", sigs)
	// Tenant "unsigned" stays on the pool default (empty set).
	for _, p := range ds.Packets {
		if err := pool.Submit("signed", p); err != nil {
			t.Fatal(err)
		}
		if err := pool.Submit("unsigned", p); err != nil {
			t.Fatal(err)
		}
	}
	pool.Flush()
	signed, ok := pool.TenantMetrics("signed")
	if !ok || signed.Matched == 0 {
		t.Fatalf("signed tenant matched %d packets (live=%v)", signed.Matched, ok)
	}
	unsigned, ok := pool.TenantMetrics("unsigned")
	if !ok || unsigned.Matched != 0 {
		t.Fatalf("unsigned tenant matched %d packets, want 0 (live=%v)", unsigned.Matched, ok)
	}

	var mu sync.Mutex
	var packets, leaks uint64
	onVerdict := func(v StreamVerdict) {
		mu.Lock()
		defer mu.Unlock()
		packets++
		if v.Leak() {
			leaks++
		}
	}
	eng := NewStreamEngine(sigs, StreamConfig{Shards: 2, OnVerdict: onVerdict})
	for _, p := range ds.Packets {
		if err := eng.Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	mu.Lock()
	defer mu.Unlock()
	if packets != uint64(len(ds.Packets)) {
		t.Fatalf("OnVerdict saw %d packets, want %d", packets, len(ds.Packets))
	}
	if leaks != signed.Matched {
		t.Fatalf("OnVerdict saw %d leaks, signed tenant matched %d", leaks, signed.Matched)
	}
}

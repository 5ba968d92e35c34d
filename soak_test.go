package leaksig

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"leaksig/internal/engine"
	"leaksig/internal/signature"
)

// soakSignatureSet builds a production-scale synthetic set: n conjunction
// signatures over a narrow byte alphabet, so the dense compile is
// realistic but the automaton stays compact. Every republish shares the
// signature slice and bumps only the version — the learner's cheap
// "same catalog, new epoch" publish shape.
func soakSignatureSet(n int, version int64) *signature.Set {
	sigs := make([]*signature.Signature, n)
	for i := range sigs {
		sigs[i] = &signature.Signature{
			ID:     i,
			Tokens: []string{fmt.Sprintf("soak-%05d=", i), "epoch="},
		}
	}
	return &signature.Set{Version: version, Signatures: sigs}
}

// TestSoakReloadChurnFullTrace is the churn soak: a 10,000-signature set
// is republished via Reload every 50ms while the full trafficgen trace
// streams through the engine. The pins: zero dropped packets, every
// accepted packet processed, generations applied strictly monotonically,
// and once the last Reload returns its ticket is the live generation —
// churn never leaves a stale set live.
func TestSoakReloadChurnFullTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test: full trace under signature churn")
	}
	e := env()
	base := soakSignatureSet(10000, 1)

	var processed atomic.Uint64
	eng := engine.New(base, engine.Config{
		Shards: 2, QueueDepth: 1024,
		Sink: engine.BatchCallbackSink(func(vs []engine.Verdict) {
			processed.Add(uint64(len(vs)))
		}),
	})

	// Sampler: generations and versions must never move backward.
	stopSample := make(chan struct{})
	sampleDone := make(chan struct{})
	go func() {
		defer close(sampleDone)
		var lastGen uint64
		var lastVer int64
		for {
			select {
			case <-stopSample:
				return
			default:
			}
			m := eng.Metrics()
			if m.ReloadGen < lastGen {
				t.Errorf("reload generation moved backward: %d after %d", m.ReloadGen, lastGen)
				return
			}
			if m.Version < lastVer {
				t.Errorf("set version moved backward: %d after %d", m.Version, lastVer)
				return
			}
			lastGen, lastVer = m.ReloadGen, m.Version
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Republisher: a new version of the 10k set every 50ms.
	stopPublish := make(chan struct{})
	publishDone := make(chan struct{})
	firstStarted := make(chan struct{})
	var issued atomic.Uint64
	go func() {
		defer close(publishDone)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for v := int64(2); ; v++ {
			select {
			case <-stopPublish:
				return
			case <-tick.C:
				if v == 2 {
					close(firstStarted)
				}
				eng.Reload(&signature.Set{Version: v, Signatures: base.Signatures})
				issued.Add(1)
			}
		}
	}()

	// A fast host streams the whole trace inside one 50ms tick; holding
	// the second half until the first republish starts keeps a reload
	// compiling while packets stream.
	ps := e.Dataset.Capture.Packets
	for i, p := range ps {
		if i == len(ps)/2 {
			<-firstStarted
		}
		if err := eng.Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()
	close(stopPublish)
	<-publishDone

	// Every Reload has returned, so the last ticket is the live generation.
	if m := eng.Metrics(); m.ReloadGen != issued.Load() {
		t.Fatalf("after churn: live generation %d, want the last ticket %d", m.ReloadGen, issued.Load())
	}
	close(stopSample)
	<-sampleDone
	eng.Close()

	m := eng.Metrics()
	total := uint64(len(e.Dataset.Capture.Packets))
	if m.Ingested != total || m.Processed != total {
		t.Errorf("ingested=%d processed=%d, want both %d", m.Ingested, m.Processed, total)
	}
	if got := processed.Load(); got != total {
		t.Errorf("sink saw %d verdicts, want %d", got, total)
	}
	if m.Reloads == 0 {
		t.Error("no reload ever applied during the soak")
	}
	t.Logf("soak: %d packets, %d reloads applied, last compile %v", total, m.Reloads, m.LastReload)
}

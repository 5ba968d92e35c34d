package siggen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"leaksig/internal/durable"
	"leaksig/internal/obs/trace"
	"leaksig/internal/signature"
)

// blockOwner queues a call that holds the owner goroutine, returns once
// the owner is held, and hands back the function that lets it go.
func blockOwner(svc *Service) (release func()) {
	held, unblock := make(chan struct{}), make(chan struct{})
	go svc.call(func() {
		close(held)
		<-unblock
	})
	<-held
	return func() { close(unblock) }
}

// TestEpochSeesEveryObservedMissInOrder stalls the owner goroutine while
// misses queue up and an epoch is requested behind them, and requires
// the epoch to publish exactly what it publishes with no stall: every
// miss observed before RunEpoch is admitted, in order, before the epoch
// runs, however long the owner is held.
func TestEpochSeesEveryObservedMissInOrder(t *testing.T) {
	stream := familyStream(23, 24, 24)
	stream = stream[:len(stream)/2]
	type outcome struct {
		published []string
		st        Stats
	}
	run := func(stall bool) outcome {
		var o outcome
		svc := NewService(Config{
			Cluster:    ClusterConfig{MaxClusters: 16, MaxMembers: 16, ElectSample: 6, StaleEpochs: 2},
			TenantSets: true,
			// One private reservoir, the rest overflow: the epoch clusters
			// in arrival order (see TestServiceMatchesExhaustive).
			MaxTenantReservoirs: 1,
			OnPublish: func(name string, set *signature.Set) {
				o.published = append(o.published, name+"="+setFingerprint(set))
			},
		})
		defer svc.Close()
		release := func() {}
		if stall {
			release = blockOwner(svc)
		}
		for _, a := range stream {
			if !svc.Observe(a.tenant, a.p) {
				t.Fatal("intake dropped a miss")
			}
		}
		done := make(chan error, 1)
		go func() {
			_, err := svc.RunEpoch(context.Background())
			o.st = svc.Stats()
			done <- err
		}()
		if stall {
			time.Sleep(1500 * time.Millisecond)
			release()
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return o
	}
	got, want := run(true), run(false)
	if len(want.published) == 0 {
		t.Fatal("the unstalled epoch published nothing; the check compares too little")
	}
	if !reflect.DeepEqual(got.published, want.published) {
		t.Fatalf("a stalled owner changed what the epoch published:\n got %v\nwant %v", got.published, want.published)
	}
	for _, o := range []outcome{got, want} {
		if n := uint64(len(stream)); o.st.Observed != n || o.st.Admitted != n || o.st.PendingSamples != 0 {
			t.Fatalf("at RunEpoch's return: observed %d, admitted %d, pending %d; want %d, %d, 0",
				o.st.Observed, o.st.Admitted, o.st.PendingSamples, n, n)
		}
	}
}

// TestFullQueueDropsMissesNotEpochs fills the queue behind a held owner:
// one more miss is dropped at once, counted, and lets go of its span,
// while an epoch request waits for room and runs after every queued miss.
func TestFullQueueDropsMissesNotEpochs(t *testing.T) {
	const depth = 4
	svc := NewService(Config{IntakeDepth: depth})
	defer svc.Close()
	release := blockOwner(svc)
	for i := 0; i < depth; i++ {
		if !svc.Observe("t", leakPacket("t", i)) {
			t.Fatalf("miss %d dropped below the queue bound", i)
		}
	}

	tr := trace.NewTracer(1)
	p := leakPacket("t", depth)
	p.BeginTrace(tr)
	sp := p.Span
	if svc.Observe("t", p) {
		t.Fatal("Observe queued a miss past the bound")
	}
	if st := svc.Stats(); st.SinkDropped != 1 || st.Observed != depth {
		t.Fatalf("dropped %d, observed %d; want 1, %d", st.SinkDropped, st.Observed, depth)
	}
	sp.Finish() // the caller's own reference: the last one, if Observe let go of its hold
	if f := tr.Stats().Finished; f != 1 {
		t.Fatalf("%d spans finished, want 1: the dropped miss kept its span hold", f)
	}

	type result struct {
		st  Stats
		err error
	}
	done := make(chan result, 1)
	go func() {
		_, err := svc.RunEpoch(context.Background())
		done <- result{svc.Stats(), err}
	}()
	// Give RunEpoch time to block on the full queue; the checks below
	// hold whether or not it got there first.
	time.Sleep(50 * time.Millisecond)
	release()
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.st.Epochs != 1 || r.st.Admitted != depth || r.st.PendingSamples != 0 {
		t.Fatalf("at RunEpoch's return: epochs %d, admitted %d, pending %d; want 1, %d, 0",
			r.st.Epochs, r.st.Admitted, r.st.PendingSamples, depth)
	}
}

// TestCloseEndsTheOwner pins the lifecycle: RunEpoch after Close fails
// without running an epoch, RunEpoch racing Close either runs its epoch
// or fails but never hangs, and Close may be called again.
func TestCloseEndsTheOwner(t *testing.T) {
	svc := NewService(Config{})
	svc.Observe("t", leakPacket("t", 1))
	svc.Close()
	if _, err := svc.RunEpoch(context.Background()); !errors.Is(err, errClosed) {
		t.Fatalf("RunEpoch after Close: err %v, want %v", err, errClosed)
	}
	if st := svc.Stats(); st.Epochs != 0 {
		t.Fatalf("RunEpoch after Close ran %d epochs", st.Epochs)
	}
	svc.Close()

	for i := 0; i < 50; i++ {
		svc := NewService(Config{})
		var wg sync.WaitGroup
		var err error
		wg.Add(3)
		go func() { defer wg.Done(); _, err = svc.RunEpoch(context.Background()) }()
		go func() { defer wg.Done(); svc.Close() }()
		go func() { defer wg.Done(); svc.Close() }()
		wg.Wait()
		epochs := svc.Stats().Epochs
		if (err == nil) != (epochs == 1) || (err != nil && !errors.Is(err, errClosed)) {
			t.Fatalf("round %d: RunEpoch racing Close returned %v after %d epochs", i, err, epochs)
		}
	}
}

// TestCloseCheckpointHoldsEveryObservedMiss queues misses behind a held
// owner, closes, and requires the final checkpoint to carry every one.
func TestCloseCheckpointHoldsEveryObservedMiss(t *testing.T) {
	const n = 40
	ckpt := filepath.Join(t.TempDir(), "learner.ckpt")
	svc := NewService(Config{CheckpointPath: ckpt, MaxTenantReservoirs: 2})
	release := blockOwner(svc)
	for i := 0; i < n; i++ {
		tenant := fmt.Sprintf("tenant-%d", i%3)
		if !svc.Observe(tenant, leakPacket(tenant, i)) {
			t.Fatalf("miss %d dropped", i)
		}
	}
	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	release()
	<-closed

	var state ckptState
	j, err := durable.Open(ckpt, durable.JournalConfig{Replay: func(p []byte) error {
		state = ckptState{}
		return json.Unmarshal(p, &state)
	}})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	got := len(state.Overflow)
	for _, samples := range state.Reservoirs {
		got += len(samples)
	}
	if got != n {
		t.Fatalf("the checkpoint Close wrote holds %d misses, want %d", got, n)
	}
}

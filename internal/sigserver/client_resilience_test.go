package sigserver

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"leaksig/internal/resilience"
	"leaksig/internal/signature"
)

// TestWatchRetryBackoffIsJittered drives Watch against an unreachable
// server with the sleep stubbed out (a fake clock: no real time
// passes), and asserts every retry delay is jittered into [fallback/2,
// fallback] rather than pinned at the fallback — the property that
// keeps a watcher fleet from re-flooding a restarted server in
// lockstep.
func TestWatchRetryBackoffIsJittered(t *testing.T) {
	const fallback = 10 * time.Second
	c := NewClient("http://127.0.0.1:1", nil) // nothing listens here
	c.setRetrySeed(42)

	ctx, cancel := context.WithCancel(context.Background())
	delays := make(chan time.Duration, 16)
	c.sleep = func(ctx context.Context, d time.Duration) error {
		select {
		case delays <- d:
		default:
			cancel() // collected enough; end the watch
		}
		return ctx.Err()
	}

	err := c.Watch(ctx, fallback, func(*signature.Set) {
		t.Error("watch delivered a set from an unreachable server")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("watch ended with %v, want context.Canceled", err)
	}
	close(delays)

	var got []time.Duration
	for d := range delays {
		got = append(got, d)
	}
	if len(got) < 8 {
		t.Fatalf("captured %d retry delays, want >= 8", len(got))
	}
	distinct := map[time.Duration]struct{}{}
	for i, d := range got {
		if d > fallback || d < fallback/2 {
			t.Fatalf("retry %d slept %v, want within [%v, %v]", i, d, fallback/2, fallback)
		}
		distinct[d] = struct{}{}
	}
	if len(distinct) < 2 {
		t.Fatalf("all %d retries slept identically (%v); jitter is not applied", len(got), got[0])
	}

	// Determinism: the same seed reproduces the same delay sequence.
	c2 := NewClient("http://127.0.0.1:1", nil)
	c2.setRetrySeed(42)
	ctx2, cancel2 := context.WithCancel(context.Background())
	var got2 []time.Duration
	c2.sleep = func(ctx context.Context, d time.Duration) error {
		if len(got2) < len(got) {
			got2 = append(got2, d)
			return ctx.Err()
		}
		cancel2()
		return context.Canceled
	}
	c2.Watch(ctx2, fallback, func(*signature.Set) {})
	cancel2()
	for i := range got {
		if i < len(got2) && got2[i] != got[i] {
			t.Fatalf("retry %d: seed 42 gave %v then %v", i, got[i], got2[i])
		}
	}
}

// TestClientPublishBreaker verifies the breaker gates the publish path:
// consecutive failures open it, an open breaker sheds publishes without
// dialing, and a recovered server closes it again.
func TestClientPublishBreaker(t *testing.T) {
	var healthy atomic.Bool
	var hits atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if !healthy.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("7"))
	}))
	defer backend.Close()

	clk := time.Unix(1000, 0)
	br := resilience.NewBreaker(resilience.BreakerConfig{
		FailureThreshold: 3,
		OpenFor:          time.Minute,
		Clock:            func() time.Time { return clk },
	})
	c := NewClient(backend.URL, backend.Client())
	c.SetBreaker(br)

	ctx := context.Background()
	set := &signature.Set{Version: 7}
	for i := 0; i < 3; i++ {
		if _, err := c.Publish(ctx, "", set); err == nil {
			t.Fatalf("publish %d against a 500ing server succeeded", i)
		}
	}
	if got := br.State(); got != resilience.Open {
		t.Fatalf("breaker state = %v after 3 failures, want open", got)
	}

	before := hits.Load()
	if _, err := c.Publish(ctx, "", set); !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("publish while open: err = %v, want ErrOpen", err)
	}
	if hits.Load() != before {
		t.Fatal("open breaker still dialed the server")
	}

	// Window elapses, server recovers: the half-open probe closes it.
	healthy.Store(true)
	clk = clk.Add(time.Minute)
	if _, err := c.Publish(ctx, "", set); err != nil {
		t.Fatalf("probe publish after recovery: %v", err)
	}
	if got := br.State(); got != resilience.Closed {
		t.Fatalf("breaker state = %v after successful probe, want closed", got)
	}
}

// TestClientBreakerTreatsStaleVersionAsAlive: a 409 means the server is
// up and enforcing its guard; it must not push the breaker toward open.
func TestClientBreakerTreatsStaleVersionAsAlive(t *testing.T) {
	srv := New()
	srv.Publish("", &signature.Set{}) // version 1
	backend := httptest.NewServer(srv.HandlerWithPublish(""))
	defer backend.Close()

	br := resilience.NewBreaker(resilience.BreakerConfig{FailureThreshold: 1, OpenFor: time.Minute})
	c := NewClient(backend.URL, backend.Client())
	c.SetBreaker(br)

	for i := 0; i < 5; i++ {
		_, err := c.Publish(context.Background(), "", &signature.Set{Version: 1}) // stale on purpose
		if !errors.Is(err, ErrStaleVersion) {
			t.Fatalf("publish %d: err = %v, want ErrStaleVersion", i, err)
		}
	}
	if got := br.State(); got != resilience.Closed {
		t.Fatalf("breaker state = %v after 409s, want closed (server is alive)", got)
	}
}

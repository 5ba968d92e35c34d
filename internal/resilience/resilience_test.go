package resilience

import (
	"errors"
	"testing"
	"time"
)

func TestBackoffDeterministicWithSeed(t *testing.T) {
	a := NewBackoff(10*time.Millisecond, time.Second, 42)
	b := NewBackoff(10*time.Millisecond, time.Second, 42)
	for i := 0; i < 20; i++ {
		da, db := a.Delay(i), b.Delay(i)
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, da, db)
		}
	}
}

func TestBackoffBounds(t *testing.T) {
	b := NewBackoff(10*time.Millisecond, 160*time.Millisecond, 7)
	for attempt := 0; attempt < 12; attempt++ {
		ceil := 10 * time.Millisecond
		for i := 0; i < attempt && ceil < 160*time.Millisecond; i++ {
			ceil *= 2
		}
		if ceil > 160*time.Millisecond {
			ceil = 160 * time.Millisecond
		}
		for trial := 0; trial < 50; trial++ {
			d := b.Delay(attempt)
			if d > ceil {
				t.Fatalf("attempt %d: delay %v above ceiling %v", attempt, d, ceil)
			}
			if d < ceil/2 {
				t.Fatalf("attempt %d: delay %v below jitter floor %v", attempt, d, ceil/2)
			}
		}
	}
}

func TestBackoffNoJitterIsExact(t *testing.T) {
	b := NewBackoff(10*time.Millisecond, time.Second, 1)
	b.Jitter = 0
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
	}
	for i, w := range want {
		if got := b.Delay(i); got != w {
			t.Fatalf("attempt %d: got %v want %v", i, got, w)
		}
	}
}

// fakeClock is a manually advanced clock for breaker window tests.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func TestBreakerOpensAfterThreshold(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	br := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenFor: 10 * time.Second, Clock: clk.Now})
	boom := errors.New("boom")

	for i := 0; i < 2; i++ {
		if !br.Allow() {
			t.Fatalf("failure %d: breaker should still be closed", i)
		}
		br.Record(boom)
	}
	if got := br.State(); got != Closed {
		t.Fatalf("below threshold: state = %v, want closed", got)
	}
	br.Allow()
	br.Record(boom)
	if got := br.State(); got != Open {
		t.Fatalf("at threshold: state = %v, want open", got)
	}
	if br.Allow() {
		t.Fatal("open breaker admitted an attempt before OpenFor elapsed")
	}
}

func TestBreakerHalfOpenProbeAndRecovery(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	br := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenFor: 5 * time.Second, Clock: clk.Now})
	boom := errors.New("boom")

	br.Allow()
	br.Record(boom)
	if br.State() != Open {
		t.Fatal("breaker should open after one failure at threshold 1")
	}

	clk.Advance(5 * time.Second)
	if !br.Allow() {
		t.Fatal("expired open window should admit a half-open probe")
	}
	// A concurrent caller while the probe is in flight is shed.
	if br.Allow() {
		t.Fatal("second caller admitted while probe in flight")
	}
	// Probe fails → straight back to open.
	br.Record(boom)
	if got := br.State(); got != Open {
		t.Fatalf("failed probe: state = %v, want open", got)
	}

	clk.Advance(5 * time.Second)
	if !br.Allow() {
		t.Fatal("second probe refused")
	}
	br.Record(nil)
	if got := br.State(); got != Closed {
		t.Fatalf("successful probe: state = %v, want closed", got)
	}
	if !br.Allow() {
		t.Fatal("closed breaker refused an attempt")
	}
}

func TestBreakerStatsAndTransitions(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	br := NewBreaker(BreakerConfig{
		FailureThreshold: 2,
		OpenFor:          time.Second,
		Clock:            clk.Now,
	})
	boom := errors.New("boom")
	step := func(name string, want State) {
		t.Helper()
		if got := br.State(); got != want {
			t.Fatalf("after %s: state = %v, want %v", name, got, want)
		}
	}

	br.Allow()
	br.Record(boom)
	step("first failure", Closed)
	br.Allow()
	br.Record(boom)
	step("second failure", Open)
	if br.Allow() {
		t.Fatal("open breaker admitted the attempt")
	}
	step("shed attempt", Open)
	clk.Advance(time.Second)
	step("open window elapsed", HalfOpen)
	if !br.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	br.Record(nil) // probe succeeds
	step("successful probe", Closed)

	st := br.Stats()
	if st.State != "closed" {
		t.Fatalf("state = %q, want closed", st.State)
	}
	if st.Failures != 2 || st.Successes != 1 || st.Opens != 1 || st.ShedAttempts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

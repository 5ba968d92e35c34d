// Package resilience is the control plane's shared failure policy:
// jittered exponential backoff and a three-state circuit breaker. The
// breaker gates the sigserver client's publishes, the path every
// learner's HTTP publisher takes; the backoff spaces the obs shipper's
// retries, for ops-plane events and for the misses flowproxy ships to
// the learner. The client's signature watch draws its own jitter.
//
// The two pieces answer different questions. Backoff answers "when do I
// retry?" — and answers it differently for every caller, because a fleet
// of watchers that all lost the same server will all retry at the same
// instant unless each one's delay is randomized (the thundering-herd
// problem a restarted sigserver would otherwise face at fan-out).
// Breaker answers "should I even try?" — after enough consecutive
// failures the answer becomes no, callers fail fast and shed work
// locally (cache a pending publish, drop a batch with accounting)
// instead of stacking timeouts against a dead dependency.
//
// Both are deterministic under test: Backoff takes a seed, Breaker takes
// a clock.
package resilience

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// ErrOpen is what callers return when Breaker.Allow refuses an attempt:
// the dependency has failed enough consecutive times that attempts are
// being shed without trying.
var ErrOpen = errors.New("resilience: circuit open")

// Backoff computes jittered exponential retry delays. The zero value is
// not usable; construct with NewBackoff. Safe for concurrent use.
type Backoff struct {
	// Min is the base delay of attempt 0; Max caps growth. Factor is the
	// per-attempt multiplier. Jitter is the randomized fraction: each
	// delay is drawn uniformly from [d*(1-Jitter), d], so Jitter 0.5
	// spreads a fleet's retries across half the window while never
	// exceeding the deterministic ceiling.
	Min, Max time.Duration
	Factor   float64
	Jitter   float64

	mu  sync.Mutex
	rng *rand.Rand
}

// NewBackoff returns a backoff policy. Zero arguments select the
// defaults: min 100ms, max 30s, factor 2, jitter 0.5. seed fixes the
// jitter stream; 0 seeds from the current time.
func NewBackoff(min, max time.Duration, seed int64) *Backoff {
	if min <= 0 {
		min = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 30 * time.Second
	}
	if max < min {
		max = min
	}
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Backoff{
		Min:    min,
		Max:    max,
		Factor: 2,
		Jitter: 0.5,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Delay returns the delay before retry number attempt (0-based). The
// deterministic ceiling is min(Max, Min*Factor^attempt); the returned
// value is that ceiling shrunk by up to the Jitter fraction.
func (b *Backoff) Delay(attempt int) time.Duration {
	d := float64(b.Min)
	for i := 0; i < attempt; i++ {
		d *= b.Factor
		if d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	if b.Jitter > 0 {
		b.mu.Lock()
		f := b.rng.Float64()
		b.mu.Unlock()
		d -= b.Jitter * f * d
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// State is a breaker's position in its lifecycle.
type State int32

const (
	// Closed: the dependency is healthy; every attempt is allowed.
	Closed State = iota
	// Open: consecutive failures crossed the threshold; attempts are
	// shed until OpenFor elapses.
	Open
	// HalfOpen: the open window elapsed; one probe attempt is allowed
	// through. Success closes the breaker, failure re-opens it.
	HalfOpen
)

// String names the state for logs and metric labels.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half_open"
	}
	return "unknown"
}

// BreakerConfig parameterizes a Breaker. Zero values select the noted
// defaults.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that opens the
	// breaker; default 5.
	FailureThreshold int

	// OpenFor is how long an open breaker sheds attempts before allowing
	// a half-open probe; default 10s.
	OpenFor time.Duration

	// Clock supplies the current time; nil means time.Now. Tests inject
	// a fake clock here so open windows elapse without sleeping.
	Clock func() time.Time
}

// BreakerStats is a point-in-time view of a breaker's accounting.
type BreakerStats struct {
	State        string `json:"state"`
	Consecutive  int    `json:"consecutive_failures"`
	Failures     uint64 `json:"failures"`      // lifetime recorded failures
	Successes    uint64 `json:"successes"`     // lifetime recorded successes
	Opens        uint64 `json:"opens"`         // closed/half-open → open transitions
	ShedAttempts uint64 `json:"shed_attempts"` // Allow calls refused while open
}

// Breaker is a consecutive-failure circuit breaker. Construct with
// NewBreaker; all methods are safe for concurrent use. Callers ask Allow
// before an attempt and Record the outcome after; Do wraps both.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State
	consec   int
	openedAt time.Time
	probing  bool // a half-open probe is in flight

	failures  uint64
	successes uint64
	opens     uint64
	shed      uint64
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 5
	}
	if cfg.OpenFor <= 0 {
		cfg.OpenFor = 10 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Breaker{cfg: cfg}
}

// Allow reports whether an attempt may proceed. While open it returns
// false (counting the shed attempt) until OpenFor has elapsed, at which
// point the breaker goes half-open and exactly one caller is admitted as
// the probe; concurrent callers keep shedding until that probe Records
// its outcome.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.cfg.Clock().Sub(b.openedAt) < b.cfg.OpenFor {
			b.shed++
			return false
		}
		b.state = HalfOpen
		b.probing = true
		return true
	default: // HalfOpen
		if b.probing {
			b.shed++
			return false
		}
		b.probing = true
		return true
	}
}

// Record reports one attempt's outcome. A nil error closes a half-open
// breaker and resets the consecutive-failure count; an error counts
// toward the threshold and re-opens a half-open breaker immediately.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if err == nil {
		b.successes++
		b.consec = 0
		b.state = Closed
		return
	}
	b.failures++
	b.consec++
	if b.state == HalfOpen || (b.state == Closed && b.consec >= b.cfg.FailureThreshold) {
		b.openedAt = b.cfg.Clock()
		b.opens++
		b.state = Open
	}
}

// State returns the breaker's current position, advancing an expired
// open window to half-open so observers never read a stale "open".
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && b.cfg.Clock().Sub(b.openedAt) >= b.cfg.OpenFor {
		b.state = HalfOpen
	}
	return b.state
}

// Stats returns the breaker's accounting.
func (b *Breaker) Stats() BreakerStats {
	state := b.State()
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{
		State:        state.String(),
		Consecutive:  b.consec,
		Failures:     b.failures,
		Successes:    b.successes,
		Opens:        b.opens,
		ShedAttempts: b.shed,
	}
}

package obs

import (
	"sync"
	"time"
)

// RateLimiterConfig parameterizes a RateLimiter.
type RateLimiterConfig struct {
	// Rate is the sustained per-tenant intake in packets per second; <= 0
	// disables limiting (every Allow passes).
	Rate float64

	// Burst is the bucket depth — how far above the sustained rate one
	// tenant may spike; 0 defaults to Rate (one second of burst).
	Burst float64

	// MaxTenants bounds the bucket table. Tenant keys ride on traffic
	// fields (attacker-influenced in an exposed deployment), so the table
	// must not grow without limit: past the cap the stalest bucket is
	// recycled, and its per-tenant counter series folds into the
	// aggregate before the label disappears. Default 4096.
	MaxTenants int
}

func (c RateLimiterConfig) withDefaults() RateLimiterConfig {
	if c.Burst <= 0 {
		c.Burst = c.Rate
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 4096
	}
	return c
}

// tokenBucket is one tenant's refill state. Tokens refill continuously
// at Rate up to Burst; each admitted packet spends one.
type tokenBucket struct {
	tokens float64
	last   time.Time // last refill instant; also the recency key for eviction
}

// rateLimiterStats is a point-in-time view of the limiter's accounting.
type rateLimiterStats struct {
	Allowed uint64 `json:"allowed"` // packets admitted
	Limited uint64 `json:"limited"` // packets rejected by an empty bucket
	Tenants int    `json:"tenants"` // live bucket-table entries
}

// RateLimiter enforces a per-tenant token-bucket intake limit and keeps
// the per-tenant accounting the ops plane scrapes: admissions and drops
// per tenant (bounded by the bucket table) plus aggregate totals that
// survive bucket eviction. Construct with NewRateLimiter; all methods
// are safe for concurrent use.
//
// The drop POLICY is the caller's: Allow only answers whether the packet
// is within budget. leakstream drops or blocks on a false answer per its
// -rate-policy flag; other intakes may prefer to shed load elsewhere.
type RateLimiter struct {
	cfg RateLimiterConfig

	mu      sync.Mutex
	buckets map[string]*tokenBucket

	allowed counter
	limited counter

	allowedBy *counterVec
	limitedBy *counterVec

	now func() time.Time // test hook
}

// NewRateLimiter builds a limiter. A Rate <= 0 yields a pass-through
// limiter that still counts admissions (intake accounting without
// enforcement).
func NewRateLimiter(cfg RateLimiterConfig) *RateLimiter {
	cfg = cfg.withDefaults()
	return &RateLimiter{
		cfg:       cfg,
		buckets:   make(map[string]*tokenBucket),
		allowedBy: newCounterVec("leaksig_intake_tenant_allowed_total", "Packets admitted at intake, per tenant (bounded by the limiter table).", "tenant"),
		limitedBy: newCounterVec("leaksig_intake_tenant_limited_total", "Packets rejected at intake by the rate limit, per tenant (bounded by the limiter table).", "tenant"),
		now:       time.Now,
	}
}

// Allow reports whether one packet for tenant fits the budget, spending
// a token when it does. Unlimited (Rate <= 0) limiters always admit.
func (l *RateLimiter) Allow(tenant string) bool {
	if l.cfg.Rate <= 0 {
		l.allowed.Inc()
		l.allowedBy.With(tenant).Inc()
		return true
	}
	now := l.now()
	l.mu.Lock()
	b := l.buckets[tenant]
	if b == nil {
		if len(l.buckets) >= l.cfg.MaxTenants {
			l.evictStalestLocked()
		}
		// A new bucket starts full: a tenant's first packets are its
		// burst allowance.
		b = &tokenBucket{tokens: l.cfg.Burst, last: now}
		l.buckets[tenant] = b
	} else {
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.tokens += dt * l.cfg.Rate
			if b.tokens > l.cfg.Burst {
				b.tokens = l.cfg.Burst
			}
			b.last = now
		}
	}
	ok := b.tokens >= 1
	if ok {
		b.tokens--
	}
	l.mu.Unlock()
	if ok {
		l.allowed.Inc()
		l.allowedBy.With(tenant).Inc()
	} else {
		l.limited.Inc()
		l.limitedBy.With(tenant).Inc()
	}
	return ok
}

// evictStalestLocked recycles the least-recently-refilled bucket and its
// labeled counter series (the aggregate totals keep the history).
// Callers hold l.mu.
func (l *RateLimiter) evictStalestLocked() {
	victim := ""
	var oldest time.Time
	first := true
	for k, b := range l.buckets {
		if first || b.last.Before(oldest) {
			victim, oldest, first = k, b.last, false
		}
	}
	if victim != "" {
		delete(l.buckets, victim)
		l.allowedBy.Forget(victim)
		l.limitedBy.Forget(victim)
	}
}

// stats returns the limiter's aggregate accounting.
func (l *RateLimiter) stats() rateLimiterStats {
	l.mu.Lock()
	tenants := len(l.buckets)
	l.mu.Unlock()
	return rateLimiterStats{
		Allowed: l.allowed.Value(),
		Limited: l.limited.Value(),
		Tenants: tenants,
	}
}

// Collect implements Collector: aggregate admission/drop totals (always
// present, even at zero, so dashboards can alert on absence-of-data
// separately from zero-drops) plus the bounded per-tenant breakdowns —
// separate families, so summing the tenant label never double-counts
// the aggregate, and the aggregate survives bucket eviction.
func (l *RateLimiter) Collect(m *MetricWriter) {
	st := l.stats()
	m.Counter("leaksig_intake_allowed_total", "Packets admitted at intake across all tenants.", float64(st.Allowed))
	m.Counter("leaksig_intake_limited_total", "Packets rejected at intake by the per-tenant rate limit, across all tenants.", float64(st.Limited))
	m.Gauge("leaksig_intake_limiter_tenants", "Live token buckets in the intake limiter table.", float64(st.Tenants))
	l.allowedBy.Collect(m)
	l.limitedBy.Collect(m)
}

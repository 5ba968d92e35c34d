package obs

import (
	"container/list"
	"slices"
	"strings"
	"sync"
	"time"
)

// RateLimiterConfig parameterizes a RateLimiter.
type RateLimiterConfig struct {
	// Rate is the sustained per-tenant intake in packets per second; <= 0
	// disables limiting (every Allow passes, and is still counted).
	Rate float64

	// Burst is the bucket depth — how far above the sustained rate one
	// tenant may spike; 0 defaults to Rate (one second of burst).
	Burst float64
}

// maxLimiterTenants bounds the limiter's tenant table. Tenant keys ride
// on traffic fields (attacker-influenced in an exposed deployment), so
// the table must not grow without limit: past the cap the stalest
// tenant is evicted, and its per-tenant series go with it while the
// aggregate totals keep its history.
const maxLimiterTenants = 4096

// tenantEntry is one tenant's row in the limiter table: its token bucket
// and its intake counts. Tokens refill continuously at Rate up to Burst;
// each admitted packet spends one.
type tenantEntry struct {
	key              string
	tokens           float64
	last             time.Time // last refill instant
	allowed, limited uint64
}

// RateLimiter enforces a per-tenant token-bucket intake limit and keeps
// the per-tenant accounting the ops plane scrapes: admissions and drops
// per tenant plus aggregate totals that survive eviction. Every tenant
// lives in one table, at every rate, whose size is bounded: past the
// cap the least recently seen tenant is evicted, counts and all.
// Construct with NewRateLimiter; all methods are safe for concurrent
// use.
//
// The drop POLICY is the caller's: Allow only answers whether the packet
// is within budget. leakstream drops or blocks on a false answer per its
// -rate-policy flag; other intakes may prefer to shed load elsewhere.
type RateLimiter struct {
	cfg        RateLimiterConfig
	maxTenants int // maxLimiterTenants; tests shrink it

	mu      sync.Mutex
	tenants map[string]*list.Element
	recency *list.List // of *tenantEntry, most recently seen first

	// Aggregate totals, across evictions.
	allowed, limited uint64

	now func() time.Time // test hook
}

// NewRateLimiter builds a limiter. A Rate <= 0 yields a pass-through
// limiter that still counts admissions (intake accounting without
// enforcement).
func NewRateLimiter(cfg RateLimiterConfig) *RateLimiter {
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.Rate
	}
	return &RateLimiter{
		cfg:        cfg,
		maxTenants: maxLimiterTenants,
		tenants:    make(map[string]*list.Element),
		recency:    list.New(),
		now:        time.Now,
	}
}

// Allow reports whether one packet for tenant fits the budget, spending
// a token when it does. Unlimited (Rate <= 0) limiters always admit and
// never read the clock.
func (l *RateLimiter) Allow(tenant string) bool {
	var now time.Time
	if l.cfg.Rate > 0 {
		now = l.now()
	}
	l.mu.Lock()
	e := l.entryLocked(tenant, now)
	ok := true
	if l.cfg.Rate > 0 {
		if dt := now.Sub(e.last).Seconds(); dt > 0 {
			e.tokens = min(e.tokens+dt*l.cfg.Rate, l.cfg.Burst)
			e.last = now
		}
		ok = e.tokens >= 1
		if ok {
			e.tokens--
		}
	}
	if ok {
		e.allowed++
		l.allowed++
	} else {
		e.limited++
		l.limited++
	}
	l.mu.Unlock()
	return ok
}

// entryLocked returns tenant's entry, moved to the front of the recency
// list. A new tenant starts with a full bucket — its first packets are
// its burst allowance — and past the cap it takes over the stalest
// entry. Callers hold l.mu.
func (l *RateLimiter) entryLocked(tenant string, now time.Time) *tenantEntry {
	if el := l.tenants[tenant]; el != nil {
		l.recency.MoveToFront(el)
		return el.Value.(*tenantEntry)
	}
	fresh := tenantEntry{key: tenant, tokens: l.cfg.Burst, last: now}
	var el *list.Element
	if l.recency.Len() >= l.maxTenants {
		el = l.recency.Back()
		delete(l.tenants, el.Value.(*tenantEntry).key)
		*el.Value.(*tenantEntry) = fresh
		l.recency.MoveToFront(el)
	} else {
		el = l.recency.PushFront(&fresh)
	}
	l.tenants[tenant] = el
	return el.Value.(*tenantEntry)
}

// Collect implements Collector: aggregate admission/drop totals (always
// present, even at zero, so dashboards can alert on absence-of-data
// separately from zero-drops) plus the per-tenant breakdowns of the live
// table in key order, a tenant's series only once it has counted —
// separate families, so summing the tenant label never double-counts
// the aggregate, and the aggregate survives eviction.
func (l *RateLimiter) Collect(m *MetricWriter) {
	l.mu.Lock()
	allowed, limited := l.allowed, l.limited
	rows := make([]tenantEntry, 0, l.recency.Len())
	for el := l.recency.Front(); el != nil; el = el.Next() {
		rows = append(rows, *el.Value.(*tenantEntry))
	}
	l.mu.Unlock()
	slices.SortFunc(rows, func(a, b tenantEntry) int { return strings.Compare(a.key, b.key) })

	m.Counter("leaksig_intake_allowed_total", "Packets admitted at intake across all tenants.", float64(allowed))
	m.Counter("leaksig_intake_limited_total", "Packets rejected at intake by the per-tenant rate limit, across all tenants.", float64(limited))
	m.Gauge("leaksig_intake_limiter_tenants", "Tenants in the intake limiter table (bounded; the least recently seen is evicted past the cap).", float64(len(rows)))
	for _, r := range rows {
		if r.allowed > 0 {
			m.Counter("leaksig_intake_tenant_allowed_total", "Packets admitted at intake, per tenant (bounded by the limiter table).", float64(r.allowed), label("tenant", r.key))
		}
	}
	for _, r := range rows {
		if r.limited > 0 {
			m.Counter("leaksig_intake_tenant_limited_total", "Packets rejected at intake by the rate limit, per tenant (bounded by the limiter table).", float64(r.limited), label("tenant", r.key))
		}
	}
}

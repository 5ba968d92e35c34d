package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// fakeClock drives the limiter's refill math deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1700000000, 0)} }
func withClock(l *RateLimiter, c *fakeClock) { l.now = c.now }

func TestRateLimiterBurstThenRefill(t *testing.T) {
	clk := newFakeClock()
	l := NewRateLimiter(RateLimiterConfig{Rate: 10, Burst: 3})
	withClock(l, clk)

	// A new tenant starts with its full burst.
	for i := 0; i < 3; i++ {
		if !l.Allow("app.a") {
			t.Fatalf("burst packet %d rejected", i)
		}
	}
	if l.Allow("app.a") {
		t.Fatal("packet past the burst admitted without refill")
	}

	// 100ms at 10 pps refills exactly one token.
	clk.advance(100 * time.Millisecond)
	if !l.Allow("app.a") {
		t.Fatal("refilled token rejected")
	}
	if l.Allow("app.a") {
		t.Fatal("second packet admitted on a one-token refill")
	}

	// A long idle period caps at Burst, not unbounded credit.
	clk.advance(time.Hour)
	for i := 0; i < 3; i++ {
		if !l.Allow("app.a") {
			t.Fatalf("post-idle burst packet %d rejected", i)
		}
	}
	if l.Allow("app.a") {
		t.Fatal("idle credit exceeded the burst cap")
	}

	st := l.stats()
	if st.Allowed != 7 || st.Limited != 3 {
		t.Fatalf("stats = %+v, want 7 allowed / 3 limited", st)
	}
}

func TestRateLimiterPassThroughWhenUnlimited(t *testing.T) {
	l := NewRateLimiter(RateLimiterConfig{Rate: 0})
	for i := 0; i < 100; i++ {
		if !l.Allow("anything") {
			t.Fatal("pass-through limiter rejected a packet")
		}
	}
	if st := l.stats(); st.Allowed != 100 || st.Limited != 0 {
		t.Fatalf("pass-through must still count admissions: %+v", st)
	}
}

func TestRateLimiterBoundedTableEvictsStalest(t *testing.T) {
	clk := newFakeClock()
	l := NewRateLimiter(RateLimiterConfig{Rate: 100, Burst: 100, MaxTenants: 4})
	withClock(l, clk)

	// Four tenants fill the table, each a second apart so recency is
	// unambiguous; t0 is the stalest.
	for i := 0; i < 4; i++ {
		l.Allow(fmt.Sprintf("t%d", i))
		clk.advance(time.Second)
	}
	if st := l.stats(); st.Tenants != 4 {
		t.Fatalf("tenants = %d, want 4", st.Tenants)
	}

	// A fifth tenant must recycle t0, not grow the table.
	l.Allow("t4")
	st := l.stats()
	if st.Tenants != 4 {
		t.Fatalf("table grew past MaxTenants: %d", st.Tenants)
	}
	out := scrape(t, l)
	if strings.Contains(out, `leaksig_intake_tenant_allowed_total{tenant="t0"}`) {
		t.Errorf("evicted tenant's series still exposed:\n%s", out)
	}
	if !strings.Contains(out, `leaksig_intake_tenant_allowed_total{tenant="t4"}`) {
		t.Errorf("new tenant's series missing:\n%s", out)
	}
	// The aggregate keeps the evicted tenant's history.
	if !strings.Contains(out, "leaksig_intake_allowed_total 5") {
		t.Errorf("aggregate lost evicted history:\n%s", out)
	}
}

func TestRateLimiterCollectAlwaysEmitsAggregates(t *testing.T) {
	l := NewRateLimiter(RateLimiterConfig{Rate: 10})
	out := scrape(t, l)
	// Both aggregates present at zero, so loop_smoke and dashboards can
	// distinguish "no drops" from "no data".
	for _, want := range []string{
		"leaksig_intake_allowed_total 0",
		"leaksig_intake_limited_total 0",
		"leaksig_intake_limiter_tenants 0",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("scrape missing %q:\n%s", want, out)
		}
	}
}

func scrape(t *testing.T, c Collector) string {
	t.Helper()
	reg := NewRegistry()
	reg.Register(c)
	return reg.expose()
}

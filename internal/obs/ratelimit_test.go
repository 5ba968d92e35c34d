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

	wantSamples(t, scrape(t, l), "leaksig_intake_allowed_total 7", "leaksig_intake_limited_total 3")
}

func TestRateLimiterPassThroughWhenUnlimited(t *testing.T) {
	l := NewRateLimiter(RateLimiterConfig{Rate: 0})
	l.now = func() time.Time {
		t.Fatal("pass-through limiter read the clock")
		return time.Time{}
	}
	for i := 0; i < 100; i++ {
		if !l.Allow("anything") {
			t.Fatal("pass-through limiter rejected a packet")
		}
	}
	// Pass-through must still count admissions.
	wantSamples(t, scrape(t, l),
		"leaksig_intake_allowed_total 100",
		"leaksig_intake_limited_total 0",
		`leaksig_intake_tenant_allowed_total{tenant="anything"} 100`)
}

// TestRateLimiterBoundedTableEvictsStalest holds the tenant table, and
// with it the per-tenant series, to its cap at every rate: enforcing,
// and pass-through, which counts every tenant without limiting any.
func TestRateLimiterBoundedTableEvictsStalest(t *testing.T) {
	const maxTenants = 4
	for _, rate := range []float64{100, 0} {
		t.Run(fmt.Sprintf("rate=%v", rate), func(t *testing.T) {
			clk := newFakeClock()
			l := NewRateLimiter(RateLimiterConfig{Rate: rate, Burst: 100})
			l.maxTenants = maxTenants
			withClock(l, clk)

			// Four tenants fill the table, each a second apart so recency is
			// unambiguous; t0 is the stalest.
			for i := 0; i < maxTenants; i++ {
				l.Allow(fmt.Sprintf("t%d", i))
				clk.advance(time.Second)
			}
			wantSamples(t, scrape(t, l), "leaksig_intake_limiter_tenants 4")

			// A fifth tenant must recycle t0, not grow the table.
			l.Allow("t4")
			out := scrape(t, l)
			wantSamples(t, out, "leaksig_intake_limiter_tenants 4")
			if strings.Contains(out, `leaksig_intake_tenant_allowed_total{tenant="t0"}`) {
				t.Errorf("evicted tenant's series still exposed:\n%s", out)
			}
			if !strings.Contains(out, `leaksig_intake_tenant_allowed_total{tenant="t4"}`) {
				t.Errorf("new tenant's series missing:\n%s", out)
			}
			// The aggregate keeps the evicted tenant's history.
			wantSamples(t, out, "leaksig_intake_allowed_total 5")

			// Seeing t1 again makes t2 the stalest.
			clk.advance(time.Second)
			l.Allow("t1")
			l.Allow("t5")
			out = scrape(t, l)
			if strings.Contains(out, `{tenant="t2"}`) || !strings.Contains(out, `{tenant="t1"}`) {
				t.Errorf("t5 must evict t2, the least recently seen, and keep t1:\n%s", out)
			}

			// Churn through four times the cap in distinct keys: the table
			// and its series stay at the cap, the aggregate counts them all.
			for i := 6; i < 4*maxTenants; i++ {
				l.Allow(fmt.Sprintf("t%d", i))
			}
			out = scrape(t, l)
			if n := strings.Count(out, "\nleaksig_intake_tenant_allowed_total{"); n > maxTenants {
				t.Errorf("%d per-tenant series after churn, want at most %d:\n%s", n, maxTenants, out)
			}
			wantSamples(t, out,
				"leaksig_intake_limiter_tenants 4",
				fmt.Sprintf("leaksig_intake_allowed_total %d", 4*maxTenants+1))
		})
	}
}

func TestRateLimiterCollectAlwaysEmitsAggregates(t *testing.T) {
	l := NewRateLimiter(RateLimiterConfig{Rate: 10})
	// Both aggregates present at zero, so loop_smoke and dashboards can
	// distinguish "no drops" from "no data".
	wantSamples(t, scrape(t, l),
		"leaksig_intake_allowed_total 0",
		"leaksig_intake_limited_total 0",
		"leaksig_intake_limiter_tenants 0")
}

func scrape(t *testing.T, c Collector) string {
	t.Helper()
	reg := NewRegistry()
	reg.Register(c)
	return reg.expose()
}

// wantSamples fails unless every sample line appears whole in the
// exposition out.
func wantSamples(t *testing.T, out string, lines ...string) {
	t.Helper()
	for _, line := range lines {
		if !strings.Contains(out, "\n"+line+"\n") {
			t.Errorf("scrape missing %q:\n%s", line, out)
		}
	}
}

package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
)

// PoolConfig parameterizes a Pool. The zero value selects sensible
// defaults: a GOMAXPROCS-sized shard budget, a cap of 1024 live tenants,
// and no idle eviction.
type PoolConfig struct {
	// Engine is the per-tenant engine template. Its Shards field is a
	// per-tenant ceiling; the pool grants fewer when the shard budget
	// runs low. Sink and OnVerdict apply to every tenant.
	Engine Config

	// ShardBudget sizes tenants' worker goroutines; 0 means
	// runtime.GOMAXPROCS(0). A new tenant is granted the template's shard
	// count, or what is left of the budget if that is less, but never
	// fewer than one shard: admission never fails, the budget shapes
	// parallelism, not availability. Every grant is charged, so a tenant
	// admitted after the budget is spent keeps its single shard until it
	// is evicted and recreated, and ShardsInUse above ShardBudget is the
	// budget-pressure signal. Evicting a tenant returns its shards.
	ShardBudget int

	// MaxTenants caps concurrently live tenants; <= 0 means 1024. The
	// cap is never off: tenant keys come from traffic. Creating a tenant
	// past the cap evicts the least-recently-active one first (its
	// queued packets drain before the new tenant starts).
	MaxTenants int

	// IdleAfter evicts tenants that have not seen a Submit, Tenant, or
	// ReloadTenant for this long; 0 disables idle eviction. The janitor
	// sweeps every IdleAfter/4 (floor 1ms). Evicted tenants drain fully
	// and fold their counters into the pool aggregate; a later packet for
	// the same key transparently recreates the tenant.
	IdleAfter time.Duration

	// TenantSink, when non-nil, returns the sink a new tenant's engine
	// feeds, teed after the template's: the per-tenant verdict streams.
	// It runs outside the pool lock, so it may itself use the pool, and
	// it may return nil.
	TenantSink func(key string) Sink
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.ShardBudget <= 0 {
		c.ShardBudget = runtime.GOMAXPROCS(0)
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 1024
	}
	return c
}

// sweepInterval is how often the janitor scans for idle tenants.
func (c PoolConfig) sweepInterval() time.Duration {
	return max(c.IdleAfter/4, time.Millisecond)
}

// tenant pairs one engine with its activity clock and signature pinning.
type tenant struct {
	key        string
	eng        *Engine
	shards     int          // shards granted to the engine, charged against the budget
	lastActive atomic.Int64 // unix nanos of the most recent use

	// reloadMu orders signature swaps on this tenant: pinning, pool-wide
	// reloads and the catch-up after creation all take it, so a
	// concurrent Pool.Reload can never overwrite a just-pinned set.
	// pinned and set are only read or written under it.
	reloadMu sync.Mutex
	pinned   bool           // ReloadTenant set a tenant-specific set; pool-wide Reload skips it
	set      *signature.Set // the pin or pool default this tenant was last put on
}

func (t *tenant) touch() { t.lastActive.Store(time.Now().UnixNano()) }

// Pool maps tenant keys — app package names, device cohorts, proxy hosts —
// to engines, each with its own sink, sized from a global shard budget, so
// one signature service can isolate per-population traffic the way the
// paper's per-module signatures isolate ad libraries. Tenants are created
// lazily on first use, evicted when idle (or least-recently-active when
// MaxTenants overflows), and aggregated into pool-wide metrics that
// survive eviction. Construct with NewPool; all methods are safe for
// concurrent use.
type Pool struct {
	cfg PoolConfig

	// reloadMu serialises Reload end to end — compile, default swap, and
	// the install on every tenant — so concurrent Reloads cannot leave
	// some tenants on one set and the default on another. It is taken
	// before any other lock and never while holding one.
	reloadMu sync.Mutex

	mu      sync.RWMutex
	tenants map[string]*tenant
	set     *signature.Set // default set for new and unpinned tenants
	// def is set, compiled once: every unpinned tenant's live generation
	// points at its detect.Engine, and new tenants start on it without
	// compiling. set and def only change together, under mu.
	def         *compiledSet
	pins        map[string]*signature.Set
	shardsInUse int // shards granted to live tenants
	closed      bool

	created   atomic.Uint64
	evictions atomic.Uint64
	compiles  atomic.Int64 // default sets compiled (NewPool, Reload)

	// retired sums the counters of evicted tenants, so the aggregate
	// never loses history.
	retired Snapshot

	stopJanitor chan struct{}
	janitorDone chan struct{}
	start       time.Time
}

// NewPool starts an empty pool whose tenants begin life on the signature
// set (nil for empty).
func NewPool(set *signature.Set, cfg PoolConfig) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{
		cfg:         cfg,
		tenants:     make(map[string]*tenant),
		set:         set,
		def:         compile(set),
		pins:        make(map[string]*signature.Set),
		stopJanitor: make(chan struct{}),
		janitorDone: make(chan struct{}),
		start:       time.Now(),
	}
	p.compiles.Add(1)
	if cfg.IdleAfter > 0 {
		go p.runJanitor()
	} else {
		close(p.janitorDone)
	}
	return p
}

// Tenant returns the engine serving key, creating it on first use. It
// returns nil after Close. Callers that hold the engine across calls must
// tolerate errClosed from Submit — an idle eviction may retire it at any
// time — or simply route through Pool.Submit, which retries.
func (p *Pool) Tenant(key string) *Engine {
	p.mu.RLock()
	t := p.tenants[key]
	closed := p.closed
	p.mu.RUnlock()
	if closed {
		return nil
	}
	if t != nil {
		t.touch()
		return t.eng
	}
	t = p.create(key)
	if t == nil {
		return nil
	}
	return t.eng
}

// create makes (or returns the raced-in) tenant for key, charging the
// shard budget and evicting the least-recently-active tenant when
// MaxTenants overflows. It returns nil only when the pool is closed.
func (p *Pool) create(key string) *tenant {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil
		}
		if t := p.tenants[key]; t != nil {
			p.mu.Unlock()
			t.touch()
			return t
		}
		// Over the tenant cap: evict the least-recently-active tenant,
		// then retry — eviction drops the lock while draining.
		if len(p.tenants) >= p.cfg.MaxTenants {
			victim := ""
			oldest := int64(1<<63 - 1)
			for k, t := range p.tenants {
				if at := t.lastActive.Load(); at < oldest {
					oldest, victim = at, k
				}
			}
			p.mu.Unlock()
			p.evict(victim)
			continue
		}

		// Charge the grant under the lock; admit builds the engine
		// outside it.
		grant := min(p.cfg.Engine.ShardCount(), max(p.cfg.ShardBudget-p.shardsInUse, 1))
		p.shardsInUse += grant
		p.mu.Unlock()

		if t := p.admit(key, grant); t != nil {
			p.created.Add(1)
			return t
		}
		if p.isClosed() {
			return nil
		}
	}
}

// admit builds key's engine on grant shards already charged to the
// budget and makes it the live tenant. The engine starts on the set the
// tables name when admit begins: the tenant's pin — the pin table
// survives eviction, so a recreated tenant never silently falls back to
// the pool default — or else the pool's already compiled default
// generation, which costs no compile. Calling TenantSink and compiling a
// pinned set happen outside the pool lock, so they never stall another
// tenant's Submit; a Reload or ReloadTenant that lands meanwhile sees
// only the tables, not this tenant, so after inserting it converge
// re-reads them. admit returns nil, with the grant refunded, when the
// pool closed or another goroutine's tenant for key got in first.
func (p *Pool) admit(key string, grant int) *tenant {
	p.mu.RLock()
	set, def := p.set, p.def
	pin, pinned := p.pins[key]
	p.mu.RUnlock()

	cfg := p.cfg.Engine
	cfg.Shards = grant
	if p.cfg.TenantSink != nil {
		cfg.Sink = TeeSink(cfg.Sink, p.cfg.TenantSink(key))
	}
	t := &tenant{key: key, shards: grant, pinned: pinned, set: set}
	if pinned {
		t.set = pin
		t.eng = New(pin, cfg)
	} else {
		t.eng = newEngine(def, cfg)
	}
	t.touch()

	p.mu.Lock()
	if p.closed || p.tenants[key] != nil {
		if !p.closed { // Close already zeroed the books
			p.shardsInUse -= grant
		}
		p.mu.Unlock()
		t.eng.Close()
		return nil
	}
	p.tenants[key] = t
	p.mu.Unlock()
	p.converge(t)
	return t
}

// isClosed reports whether Close has begun.
func (p *Pool) isClosed() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.closed
}

// converge puts a live tenant on the set the tables name now: its pin if
// it has one, else the pool default. ReloadTenant ends here, and so does
// admit once the tenant is in the map. Re-reading the tables under the
// tenant's reload lock makes the outcome independent of how those calls
// and Pool.Reload interleave: the last one through always installs the
// latest answer. A tenant already on that set is left alone.
func (p *Pool) converge(t *tenant) {
	t.reloadMu.Lock()
	defer t.reloadMu.Unlock()
	p.mu.RLock()
	set, def := p.set, p.def
	pin, pinned := p.pins[t.key]
	p.mu.RUnlock()
	switch {
	case pinned && (!t.pinned || t.set != pin):
		t.pinned, t.set = true, pin
		t.eng.Reload(pin)
	case !pinned && t.set != set:
		t.set = set
		t.eng.adopt(def, time.Now())
	}
}

// Submit queues one packet for the tenant, creating the tenant on first
// use and blocking under that tenant's backpressure. A concurrent
// eviction is transparent: the packet lands on the recreated tenant.
// It returns errClosed only after Pool.Close.
func (p *Pool) Submit(key string, pkt *httpmodel.Packet) error {
	for {
		e := p.Tenant(key)
		if e == nil {
			return errClosed
		}
		err := e.Submit(pkt)
		if err == errClosed {
			continue // tenant evicted between lookup and submit; recreate
		}
		return err
	}
}

// Reload installs the signature set as the pool-wide default: it is
// compiled once, every unpinned live tenant hot-swaps to that one
// compiled generation (each under its own reload ticket), and future
// tenants start on it. Tenants pinned by ReloadTenant keep their private
// sets — the pin check and the swap are ordered by each tenant's reload
// lock, so a concurrent ReloadTenant can never be overwritten by the
// default set. Concurrent Reloads run one after the other, so all
// unpinned tenants end on the set new tenants will start on.
func (p *Pool) Reload(set *signature.Set) {
	p.reloadMu.Lock()
	defer p.reloadMu.Unlock()
	started := time.Now()
	def := compile(set) // before taking mu: no Submit waits on a compile
	p.compiles.Add(1)
	p.mu.Lock()
	p.set, p.def = set, def
	targets := make([]*tenant, 0, len(p.tenants))
	for _, t := range p.tenants {
		targets = append(targets, t)
	}
	p.mu.Unlock()
	for _, t := range targets {
		t.reloadMu.Lock()
		if !t.pinned {
			t.set = set
			t.eng.adopt(def, started)
		}
		t.reloadMu.Unlock()
	}
}

// ReloadTenant pins a tenant-private signature set — this is how one
// pool serves differently-signed populations (per-app sets, per-cohort
// canary rollouts, the learner's per-tenant published sets). Pool-wide
// Reload no longer touches the tenant. The pin is durable: it is
// recorded even when the tenant is not live (no engine is eagerly
// created — a fleet-wide set catalog can be pinned without
// instantiating every tenant), and it survives idle/LRU eviction, so a
// recreated tenant starts on its pinned set rather than silently
// falling back to the pool default.
func (p *Pool) ReloadTenant(key string, set *signature.Set) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.pins[key] = set
	t := p.tenants[key]
	p.mu.Unlock()
	if t != nil {
		p.converge(t)
		t.touch()
	}
}

// evict drains and retires the tenant, folding its final counters into
// the pool aggregate and returning its shards to the budget. It reports
// whether the tenant existed. The tenant's queued packets are fully
// matched (and its sinks fed) before Evict returns.
func (p *Pool) evict(key string) bool {
	p.mu.Lock()
	t := p.tenants[key]
	if t == nil {
		p.mu.Unlock()
		return false
	}
	delete(p.tenants, key)
	p.shardsInUse -= t.shards
	p.mu.Unlock()

	t.eng.Close() // drains every accepted packet
	p.retire(t.eng.Metrics())
	p.evictions.Add(1)
	return true
}

// retire folds a drained engine's final counters into the aggregate.
func (p *Pool) retire(final Snapshot) {
	p.mu.Lock()
	p.retired.addCounters(final)
	p.mu.Unlock()
}

// runJanitor periodically evicts tenants idle longer than IdleAfter.
func (p *Pool) runJanitor() {
	defer close(p.janitorDone)
	tick := time.NewTicker(p.cfg.sweepInterval())
	defer tick.Stop()
	for {
		select {
		case <-p.stopJanitor:
			return
		case <-tick.C:
			cutoff := time.Now().Add(-p.cfg.IdleAfter).UnixNano()
			p.mu.RLock()
			var idle []string
			for k, t := range p.tenants {
				if t.lastActive.Load() < cutoff {
					idle = append(idle, k)
				}
			}
			p.mu.RUnlock()
			for _, k := range idle {
				p.evict(k)
			}
		}
	}
}

// TenantMetrics returns the tenant's snapshot and whether it is live.
func (p *Pool) TenantMetrics(key string) (Snapshot, bool) {
	p.mu.RLock()
	t := p.tenants[key]
	p.mu.RUnlock()
	if t == nil {
		return Snapshot{}, false
	}
	return t.eng.Metrics(), true
}

// Flush blocks until every packet accepted so far by every live tenant
// has been matched.
func (p *Pool) Flush() {
	p.mu.RLock()
	engines := make([]*Engine, 0, len(p.tenants))
	for _, t := range p.tenants {
		engines = append(engines, t.eng)
	}
	p.mu.RUnlock()
	for _, e := range engines {
		e.Flush()
	}
}

// Close stops the janitor, drains and closes every tenant, and makes all
// further submissions fail. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	tenants := make([]*tenant, 0, len(p.tenants))
	for _, t := range p.tenants {
		tenants = append(tenants, t)
	}
	p.tenants = make(map[string]*tenant)
	p.shardsInUse = 0
	p.mu.Unlock()

	close(p.stopJanitor)
	<-p.janitorDone
	for _, t := range tenants {
		t.eng.Close()
		p.retire(t.eng.Metrics())
	}
}

// PoolSnapshot is a point-in-time view of the pool: per-tenant engine
// snapshots plus lifetime aggregates that include evicted tenants.
type PoolSnapshot struct {
	Tenants     int    // live tenants
	Created     uint64 // tenants ever created
	Evicted     uint64 // tenants evicted (idle, LRU, or explicit)
	ShardBudget int    // configured global shard budget

	// ShardsInUse is the worker count running across live tenants. It
	// exceeds ShardBudget when tenants were admitted after the budget was
	// spent — each still runs one shard — so a value above the budget is
	// the operator's signal of budget pressure.
	ShardsInUse int

	// Aggregate sums counters across live and evicted tenants. Its
	// latency quantiles are zero — per-tenant quantiles cannot be merged
	// soundly; read them from PerTenant.
	Aggregate Snapshot

	PerTenant map[string]Snapshot
}

// Metrics assembles a pool snapshot. It is safe to call while streaming.
func (p *Pool) Metrics() PoolSnapshot {
	p.mu.RLock()
	tenants := make(map[string]*tenant, len(p.tenants))
	for k, t := range p.tenants {
		tenants[k] = t
	}
	snap := PoolSnapshot{
		Tenants:     len(tenants),
		Created:     p.created.Load(),
		Evicted:     p.evictions.Load(),
		ShardBudget: p.cfg.ShardBudget,
		ShardsInUse: p.shardsInUse,
		PerTenant:   make(map[string]Snapshot, len(tenants)),
		Aggregate:   p.retired,
	}
	p.mu.RUnlock()
	snap.Aggregate.Compiles += p.compiles.Load()
	snap.Aggregate.Uptime = time.Since(p.start)
	for k, t := range tenants {
		m := t.eng.Metrics()
		snap.PerTenant[k] = m
		snap.Aggregate.addCounters(m)
		snap.Aggregate.Shards += m.Shards
		snap.Aggregate.QueueDepth += m.QueueDepth
	}
	if secs := snap.Aggregate.Uptime.Seconds(); secs > 0 {
		snap.Aggregate.PacketsPerSec = float64(snap.Aggregate.Processed) / secs
	}
	if snap.Aggregate.Processed > 0 {
		snap.Aggregate.MatchRate = float64(snap.Aggregate.Matched) / float64(snap.Aggregate.Processed)
	}
	return snap
}

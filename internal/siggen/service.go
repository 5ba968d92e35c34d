// Package siggen is the online half of the paper's signature generation:
// an incremental, always-on learner that closes the loop the offline
// tools (cmd/leakcluster, cmd/leakgen) leave open.
//
// The offline pipeline materializes a corpus, computes a full distance
// matrix, agglomerates once, and writes a signature file somebody must
// publish by hand. This package runs the same method — the §IV-B/C packet
// distance, group-average clustering, common-substring token extraction,
// Bayes filtering — as a streaming service with three stages:
//
//	intake:   engine shards push unmatched ("miss") flows through a
//	          MissSink onto one bounded queue, and the service's owner
//	          goroutine admits them, in arrival order, into per-tenant
//	          bounded reservoirs (algorithm R), so burst load can never
//	          grow learner memory and the sampled corpus stays uniform
//	          over each epoch's traffic;
//	cluster:  a rolling medoid clusterer assigns each sampled flow on
//	          arrival (no from-scratch re-clustering), tagging every
//	          cluster with the tenant mix of its members, with epoch
//	          compaction that re-elects medoids, agglomerates them with
//	          internal/cluster, merges below-threshold neighbors, and
//	          forgets stale clusters;
//	publish:  each epoch distills candidate conjunction signatures from
//	          the mature clusters, gates them through a Bayes model and a
//	          held-out false-positive corpus, folds survivors into a
//	          published catalog that remembers which clusters sourced
//	          each signature, and — when content actually changed —
//	          publishes the global set plus (with TenantSets) one named
//	          set per tenant, each under its own strictly increasing
//	          version, which every watching engine hot-reloads.
//
// One goroutine owns the learner. Misses and calls (RunEpoch, Close's
// final checkpoint) share its queue, and it handles them in queue order,
// so the sets an epoch publishes depend only on the misses observed
// before it and the order they arrived in, never on goroutine timing.
//
// The catalog is also where drift retirement lives: when staleness
// pruning retires every cluster that sourced a published signature, the
// signature leaves the catalog and the next epoch publishes sets without
// it — signatures age out as app/library traffic evolves instead of
// accumulating forever. A tenant whose signatures all retire gets one
// final empty publish so watchers converge, then drops out of the
// learner's books entirely.
//
// Detection and generation thereby form the closed loop of the paper's
// Figure 3: traffic the current signatures cannot explain is exactly the
// corpus the next signature generation learns from — per population, the
// way the paper's per-module signatures isolate ad libraries.
package siggen

import (
	"context"
	"errors"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"leaksig/internal/durable"
	"leaksig/internal/httpmodel"
	"leaksig/internal/obs/trace"
	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
)

// Config parameterizes the service. The zero value selects the defaults
// noted on each field; only Publisher is required for auto-publishing
// (without it epochs still cluster and distill, returning sets to the
// RunEpoch caller and feeding OnPublish).
type Config struct {
	// Cluster tunes the incremental clusterer (distance metric, join
	// threshold, table bounds, staleness).
	Cluster ClusterConfig

	// ReservoirSize bounds each tenant's per-epoch sample; default 256.
	ReservoirSize int

	// MaxTenantReservoirs bounds how many tenants get private
	// reservoirs; tenants past the cap share one overflow reservoir
	// (tenant keys can be attacker-influenced). Reservoir slots are
	// released every epoch, so the cap bounds tenants per epoch, not
	// tenants ever seen. Default 64.
	MaxTenantReservoirs int

	// IntakeDepth is the sink-to-learner queue bound in packets; a full
	// queue drops samples (counted) rather than stalling engine shards.
	// Default 4096.
	IntakeDepth int

	// MinClusterSize is how many members a cluster needs before it may
	// emit a signature; default 3 (stricter than the offline default —
	// an online learner sees volatile singletons constantly).
	MinClusterSize int

	// Benign is the benign corpus, split internally: even indices train
	// the token-frequency filter and the Bayes gate, odd indices form
	// the held-out false-positive corpus. Empty disables both gates.
	Benign []*httpmodel.Packet

	// TenantBenign supplies per-tenant benign corpora for the held-out
	// false-positive gate: a candidate signature whose source clusters
	// include tenant T's traffic must also clear MaxHoldoutFP against
	// T's corpus. Tenants absent here fall back to the shared Benign
	// corpus alone. Unlike Benign, these corpora are never trained on,
	// so each is used held-out in full.
	TenantBenign map[string][]*httpmodel.Packet

	// MaxHoldoutFP is the held-out benign fraction a candidate signature
	// may match before it is dropped; default 0.01.
	MaxHoldoutFP float64

	// TenantSets, when true, distills one named signature set per tenant
	// alongside the global set: a signature lands in tenant T's set when
	// T's traffic is part of its source clusters' member mix. Each tenant
	// set publishes through the Publisher and OnPublish under the tenant
	// key, with its own strictly increasing version.
	TenantSets bool

	// GenerateInterval is the epoch cadence of the background loop; 0
	// disables the timer, leaving epochs to explicit RunEpoch calls
	// (pipe-mode daemons, tests).
	GenerateInterval time.Duration

	// MinNewSamples skips timed epochs until at least this many samples
	// arrived since the last one; default 1. RunEpoch ignores it.
	MinNewSamples int

	// Publisher receives accepted sets; nil disables remote publishing
	// (sets still reach OnPublish with locally stamped versions).
	Publisher Publisher

	// OnPublish, when non-nil, observes every successful publish with
	// the accepted set (Version already assigned): the global set as "",
	// each tenant set under its tenant key. This is the in-process route
	// for landing per-tenant sets in an engine.Pool (Pool.ReloadTenant).
	// It runs on the owner goroutine, in the middle of an epoch, with the
	// service lock held: calling RunEpoch or Close from it deadlocks (the
	// owner would wait on itself), and so does Stats.
	OnPublish func(name string, set *signature.Set)

	// OnRetire, when non-nil, observes drift retirement: n catalog
	// signatures lost their last source cluster this epoch and will be
	// absent from the next published versions. It runs where OnPublish
	// does, under the same rules.
	OnRetire func(n int)

	// Seed fixes the reservoir and medoid-election randomness; default 1.
	Seed int64

	// CheckpointPath, when set, makes learner state durable: NewService
	// opens it as a journal (internal/durable) and restores from its
	// last record (missing/corrupt files restore nothing and are not
	// errors), every epoch atomically rewrites it, and Close writes a
	// final checkpoint and closes it — so reservoir samples, cluster
	// medoids+tags, the published catalog, and retirement bookkeeping
	// survive a restart. RNG state is not checkpointed; a restored
	// service reseeds from Seed.
	CheckpointPath string

	// Tracer, when non-nil, receives the learner's stage latencies:
	// sampled packet spans end at the cluster-feed stamp, and the
	// epoch-granular distill and publish stages report their durations
	// directly. Nil disables tracing (spans still flow through correctly
	// if an upstream engine attached them).
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.ReservoirSize <= 0 {
		c.ReservoirSize = 256
	}
	if c.MaxTenantReservoirs <= 0 {
		c.MaxTenantReservoirs = 64
	}
	if c.IntakeDepth <= 0 {
		c.IntakeDepth = 4096
	}
	if c.MinClusterSize <= 0 {
		c.MinClusterSize = 3
	}
	if c.MaxHoldoutFP == 0 {
		c.MaxHoldoutFP = 0.01
	}
	if c.MinNewSamples <= 0 {
		c.MinNewSamples = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// publishedSig is one catalog entry: a published (or to-be-published)
// signature with the provenance drift retirement and per-tenant set
// assembly need.
type publishedSig struct {
	sig     *signature.Signature
	sources map[uint64]int // live source cluster ID → member count when distilled
	tenants map[string]int // member count per tenant across those clusters
	traces  []string       // sampled trace IDs of contributing packets (bounded)
}

// pubState tracks one published name's delivery state: the version
// sequence, the content fingerprint of the last successful publish, and
// a cached set awaiting retry after a failed publish.
type pubState struct {
	lastVersion     int64
	lastFingerprint string
	pending         *signature.Set
	pendingFP       string
}

// namedPublish is one (name, set) pair an epoch decided to ship.
type namedPublish struct {
	name string
	set  *signature.Set
	fp   string
}

// Service is the online signature generator. Construct with NewService;
// all methods are safe for concurrent use. Feed it through MissSink (an
// engine sink) or Observe (direct), and either
// let the GenerateInterval loop publish or drive epochs yourself with
// RunEpoch.
type Service struct {
	cfg Config

	queue chan item // misses and calls, handled in order by run

	// Only the owner goroutine (run) writes the learner state below; mu
	// lets Stats read it meanwhile.
	mu          sync.Mutex
	reservoirs  map[string]*reservoir
	overflow    *reservoir
	clusterer   *Clusterer
	stage       clusterStage // what an epoch clusters with: clusterer, outside tests
	rng         *rand.Rand
	newSamples  int                      // samples admitted since the last epoch
	catalog     map[string]*publishedSig // published signatures by key
	pubs        map[string]*pubState     // per published-name delivery state; "" = global
	lastCompact CompactStats
	lastDistill distillStats
	tokens      tokenMemo // each live group's extracted tokens, for distill

	observed        atomic.Uint64
	sinkDropped     atomic.Uint64
	admitted        atomic.Uint64
	sampled         atomic.Uint64
	overflowTenants atomic.Uint64
	epochs          atomic.Uint64
	publishes       atomic.Uint64
	namedPublishes  atomic.Uint64
	publishErrors   atomic.Uint64
	retiredSigs     atomic.Uint64
	ckptSaves       atomic.Uint64
	ckptErrors      atomic.Uint64
	ckptRestored    atomic.Bool
	ckpt            *durable.Journal // the checkpoint; nil without CheckpointPath or when it failed to open

	benignTrain []*httpmodel.Packet
	benignHold  []*httpmodel.Packet

	stopped  bool          // set by Close's call; read and written by run only
	loopDone chan struct{} // closed when run returns
}

// clusterStage is the clusterer surface an epoch drives. Tests substitute
// the exhaustive reference clusterer to check that both publish the same
// sets.
type clusterStage interface {
	ObserveTenant(p *httpmodel.Packet, tenant string) bool
	Compact() CompactStats
	taggedGroups(minSize int) []group
}

// NewService starts the learner: the owner goroutine begins admitting
// misses immediately, and — when GenerateInterval is set — generating on
// its timer.
func NewService(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:        cfg,
		queue:      make(chan item, cfg.IntakeDepth),
		reservoirs: make(map[string]*reservoir),
		overflow:   newReservoir(cfg.ReservoirSize),
		clusterer:  NewClusterer(cfg.Cluster, cfg.Seed),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		catalog:    make(map[string]*publishedSig),
		pubs:       make(map[string]*pubState),
		loopDone:   make(chan struct{}),
	}
	s.stage = s.clusterer
	s.benignTrain, s.benignHold = splitBenign(cfg.Benign)
	if cfg.CheckpointPath != "" {
		s.openCheckpoint(cfg.CheckpointPath)
	}
	go s.run()
	return s
}

// item is one entry of the owner's queue: a miss to admit, or, when do
// is set, a call to run.
type item struct {
	smp sample
	do  func()
}

// errClosed is what RunEpoch returns once Close has stopped the owner.
var errClosed = errors.New("siggen: service closed")

// run is the owner goroutine: it admits misses and runs calls in queue
// order, and fires timed epochs, until Close's call stops it.
func (s *Service) run() {
	defer close(s.loopDone)
	var tick <-chan time.Time
	if s.cfg.GenerateInterval > 0 {
		t := time.NewTicker(s.cfg.GenerateInterval)
		defer t.Stop()
		tick = t.C
	}
	for !s.stopped {
		select {
		case it := <-s.queue:
			if it.do != nil {
				it.do()
				continue
			}
			s.mu.Lock()
			s.admit(it.smp)
			s.mu.Unlock()
		case <-tick:
			s.mu.Lock()
			switch {
			case s.newSamples >= s.cfg.MinNewSamples:
				s.epochLocked(context.Background())
			case s.hasPendingLocked():
				// Retry generated-but-unpublished sets without running
				// the cluster pipeline: a pure retry must not advance
				// the clusterer epoch (staleness pruning would discard
				// the clusters while the server is down), and the sets
				// themselves are already cached.
				s.publishLocked(context.Background(), s.pendingBatchLocked())
			}
			s.mu.Unlock()
		}
	}
}

// call runs fn on the owner goroutine, after everything queued before
// it, and waits until it has run. Unlike a miss, a call waits for room
// in a full queue rather than being dropped. It returns errClosed,
// without running fn, when Close stopped the owner first.
func (s *Service) call(fn func()) error {
	done := make(chan struct{})
	select {
	case s.queue <- item{do: func() { fn(); close(done) }}:
	case <-s.loopDone:
		return errClosed
	}
	select {
	case <-done:
	case <-s.loopDone:
	}
	// The owner closes done before it can stop, so done is final here.
	select {
	case <-done:
		return nil
	default:
		return errClosed
	}
}

// RunEpoch runs one full epoch on the owner goroutine — cluster the
// reservoir samples, compact, retire, distill, publish what changed —
// after admitting every miss whose Observe returned before the call, in
// order. It returns the global set it published (nil when nothing was
// generated or nothing changed; per-tenant publishes surface through
// OnPublish). The error reports the first publish failure, or that the
// service is closed; generation itself cannot fail.
func (s *Service) RunEpoch(ctx context.Context) (set *signature.Set, err error) {
	if cerr := s.call(func() {
		s.mu.Lock()
		set, err = s.epochLocked(ctx)
		s.mu.Unlock()
	}); cerr != nil {
		return nil, cerr
	}
	return set, err
}

// errStalePublish marks an epoch that lost a publish race; the service
// re-syncs its version and the next epoch retries.
var errStalePublish = errors.New("siggen: publish raced a newer version")

// publishTimeout bounds one publisher round trip so a hung server costs
// one failed (and retried) publish, never a wedged epoch goroutine.
const publishTimeout = 30 * time.Second

// epochLocked is one generation epoch. Callers hold s.mu.
func (s *Service) epochLocked(ctx context.Context) (*signature.Set, error) {
	s.epochs.Add(1)
	s.newSamples = 0

	// Stage 2: feed this epoch's samples into the rolling clusters, then
	// compact. Taking a reservoir empties it, and the slot itself is
	// released: the tenant table only ever holds tenants seen since the
	// last epoch, so transient tenant keys can never exhaust the
	// MaxTenantReservoirs slots for everyone who comes later. The
	// clusterer is order-sensitive, so the reservoirs drain in tenant-key
	// order, the overflow last: the same misses publish the same sets.
	feed := func(r *reservoir) {
		for _, smp := range r.take() {
			// The cluster feed is a sampled packet's last per-packet
			// station: stamp it and end the span here, so packets the
			// clusterer retains across epochs carry only the trace ID.
			smp.p.Span.Stamp(trace.StageCluster)
			smp.p.EndTrace()
			s.stage.ObserveTenant(smp.p, smp.tenant)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(s.reservoirs)) {
		feed(s.reservoirs[key])
		delete(s.reservoirs, key)
	}
	feed(s.overflow)
	s.lastCompact = s.stage.Compact()

	// Drift retirement: follow this compaction's merge renames, drop its
	// retired clusters, and retire every catalog signature that lost its
	// last source cluster — the next assembly simply no longer has it.
	s.retireLocked(s.lastCompact)

	// Stage 3: distill, gate, and fold survivors into the catalog.
	groups := s.stage.taggedGroups(s.cfg.MinClusterSize)
	distillStart := time.Now()
	cands, dst := distill(&s.tokens, groups, s.benignTrain, s.benignHold, s.cfg.TenantBenign,
		signature.Options{MinClusterSize: s.cfg.MinClusterSize}, s.cfg.MaxHoldoutFP)
	s.cfg.Tracer.Observe(trace.StageDistill, time.Since(distillStart))
	s.lastDistill = dst
	for _, c := range cands {
		key := c.sig.Key()
		traces := c.traces
		if prev := s.catalog[key]; prev != nil {
			traces = mergeTraces(prev.traces, c.traces)
		}
		s.catalog[key] = &publishedSig{sig: c.sig, sources: c.sources, tenants: c.tenants, traces: traces}
	}

	set, err := s.publishLocked(ctx, s.buildBatchLocked())

	// Checkpoint after the publish bookkeeping settles, so the stored
	// pubState versions and pending sets reflect this epoch's outcome —
	// including failed publishes parked for retry.
	if s.cfg.CheckpointPath != "" {
		s.saveCheckpointLocked()
	}
	return set, err
}

// retireLocked applies one compaction's cluster-identity changes to the
// catalog. Callers hold s.mu.
func (s *Service) retireLocked(cs CompactStats) {
	if len(s.catalog) == 0 || (len(cs.Retired) == 0 && len(cs.MergedInto) == 0) {
		return
	}
	retired := make(map[uint64]struct{}, len(cs.Retired))
	for _, id := range cs.Retired {
		retired[id] = struct{}{}
	}
	dropped := 0
	for key, ps := range s.catalog {
		next := make(map[uint64]int, len(ps.sources))
		for src, size := range ps.sources {
			if dst, ok := cs.MergedInto[src]; ok {
				src = dst // the population lives on under the surviving ID
			}
			if _, gone := retired[src]; gone {
				continue
			}
			if size > next[src] {
				next[src] = size
			}
		}
		if len(next) == 0 {
			delete(s.catalog, key)
			s.retiredSigs.Add(1)
			dropped++
			continue
		}
		ps.sources = next
	}
	if dropped > 0 && s.cfg.OnRetire != nil {
		s.cfg.OnRetire(dropped)
	}
}

// buildBatchLocked assembles the global set (and, with TenantSets, one
// set per tenant) from the catalog and returns the publishes this epoch
// owes: every name whose content fingerprint moved, plus cached sets
// still awaiting their first successful delivery. Callers hold s.mu.
func (s *Service) buildBatchLocked() []namedPublish {
	assembled := map[string]*signature.Set{"": s.assembleLocked(func(*publishedSig) bool { return true })}
	if s.cfg.TenantSets {
		for _, tenant := range s.catalogTenantsLocked() {
			assembled[tenant] = s.assembleLocked(func(ps *publishedSig) bool { return ps.tenants[tenant] > 0 })
		}
		// A tenant whose signatures all retired still owes watchers one
		// final empty publish so they converge off the stale set.
		for name, pub := range s.pubs {
			if name == "" {
				continue
			}
			if _, ok := assembled[name]; !ok && (pub.lastFingerprint != "" || pub.pending != nil) {
				assembled[name] = &signature.Set{}
			}
		}
	}

	var batch []namedPublish
	for name, set := range assembled {
		fp := setFingerprint(set)
		pub := s.pubs[name]
		lastFP := ""
		if pub != nil {
			lastFP = pub.lastFingerprint
		}
		if fp == lastFP {
			if pub != nil && pub.pending != nil && fp == "" {
				// Nothing was ever published under this name, but an
				// earlier generation still awaits delivery (its clusters
				// may have been pruned since): retry the cached set as-is.
				batch = append(batch, namedPublish{name: name, set: pub.pending, fp: pub.pendingFP})
			} else if pub != nil {
				// Current content equals the published content; any older
				// failed generation is obsolete.
				pub.pending, pub.pendingFP = nil, ""
			}
			continue
		}
		batch = append(batch, namedPublish{name: name, set: set, fp: fp})
	}
	sortBatch(batch)
	return batch
}

// sortBatch orders publishes deterministically: the global set first,
// then tenants in name order.
func sortBatch(batch []namedPublish) {
	sort.Slice(batch, func(i, j int) bool { return batch[i].name < batch[j].name })
}

// assembleLocked builds a set from the catalog entries keep admits. The
// set's TrainingSize counts packets across the unique source clusters
// behind the kept signatures (one cluster distilling three signatures
// counts once). Callers hold s.mu.
func (s *Service) assembleLocked(keep func(*publishedSig) bool) *signature.Set {
	var sigs []*signature.Signature
	var traces []string
	clusters := make(map[uint64]int)
	for _, ps := range s.catalog {
		if !keep(ps) {
			continue
		}
		sigs = append(sigs, ps.sig)
		traces = mergeTraces(traces, ps.traces)
		for id, size := range ps.sources {
			if size > clusters[id] {
				clusters[id] = size
			}
		}
	}
	training := 0
	for _, size := range clusters {
		training += size
	}
	set := assemble(sigs, training)
	// Trace provenance rides the set but never its fingerprint, so a
	// stable catalog under new trace IDs republishes nothing.
	sort.Strings(traces)
	set.Traces = traces
	return set
}

// catalogTenantsLocked lists every tenant named in the catalog's
// provenance. sigserver.ValidSetName screens out the unattributed ""
// label (its flows back only the global set) and tenant keys that cannot
// name a distributable set — tenant keys ride on traffic fields, and a
// crafted key like ".." must not wedge the publisher in a permanent
// retry loop. Callers hold s.mu.
func (s *Service) catalogTenantsLocked() []string {
	seen := make(map[string]struct{})
	for _, ps := range s.catalog {
		for tenant, n := range ps.tenants {
			if n > 0 && sigserver.ValidSetName(tenant) {
				seen[tenant] = struct{}{}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for tenant := range seen {
		out = append(out, tenant)
	}
	sort.Strings(out)
	return out
}

// hasPendingLocked reports whether any name holds a cached set awaiting
// a publish retry. Callers hold s.mu.
func (s *Service) hasPendingLocked() bool {
	for _, pub := range s.pubs {
		if pub.pending != nil {
			return true
		}
	}
	return false
}

// pendingBatchLocked lists every cached set awaiting retry. Callers hold
// s.mu.
func (s *Service) pendingBatchLocked() []namedPublish {
	var batch []namedPublish
	for name, pub := range s.pubs {
		if pub.pending != nil {
			batch = append(batch, namedPublish{name: name, set: pub.pending, fp: pub.pendingFP})
		}
	}
	sortBatch(batch)
	return batch
}

// pub returns (creating if needed) the delivery state for name. Callers
// hold s.mu.
func (s *Service) pub(name string) *pubState {
	p := s.pubs[name]
	if p == nil {
		p = &pubState{}
		s.pubs[name] = p
	}
	return p
}

// publishLocked ships one epoch's batch, each set with a strictly
// increasing version stamp under its own name. Callers hold s.mu; the
// publisher round trips run with the mutex RELEASED (re-acquired for
// bookkeeping) under a hard deadline, so a slow or hung server never
// wedges Stats. It returns the published global set (nil when the batch
// had none) and the first error.
func (s *Service) publishLocked(ctx context.Context, batch []namedPublish) (*signature.Set, error) {
	var globalSet *signature.Set
	var firstErr error
	for _, item := range batch {
		set, err := s.publishOneLocked(ctx, item)
		if item.name == "" && set != nil {
			globalSet = set
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return globalSet, firstErr
}

// publishOneLocked ships one named set. Callers hold s.mu (released
// around the round trip).
func (s *Service) publishOneLocked(ctx context.Context, item namedPublish) (*signature.Set, error) {
	name, set, fp := item.name, item.set, item.fp
	pub := s.pub(name)

	// Without a Publisher the set is stamped locally and delivered to the
	// in-process hook only.
	p := s.cfg.Publisher
	version := pub.lastVersion + 1
	if p == nil {
		set.Version = version
		pub.lastVersion = version
		pub.lastFingerprint = fp
		pub.pending, pub.pendingFP = nil, ""
		s.deliveredLocked(name, set)
		return set, nil
	}

	needSeed := pub.lastVersion == 0
	s.mu.Unlock()
	pubCtx, cancel := context.WithTimeout(ctx, publishTimeout)
	if needSeed {
		// First publish under this name: seed the stamp from the server
		// so we continue its sequence instead of starting a losing race
		// at 1.
		if v, err := p.CurrentVersion(pubCtx, name); err == nil && v >= version {
			version = v + 1
		}
	}
	set.Version = version
	pubStart := time.Now()
	v, err := p.Publish(pubCtx, name, set)
	s.cfg.Tracer.Observe(trace.StagePublish, time.Since(pubStart))
	var cur int64
	var curErr error
	if err != nil {
		// Another writer may have advanced the server; learn its version
		// so the retry stamps past it.
		cur, curErr = p.CurrentVersion(pubCtx, name)
	}
	cancel()

	s.mu.Lock()
	if err != nil {
		s.publishErrors.Add(1)
		// Cache the set so retries survive cluster pruning and quiet
		// traffic; the next tick republishes it as-is.
		pub.pending, pub.pendingFP = set, fp
		if curErr == nil && cur > pub.lastVersion {
			pub.lastVersion = cur
			return nil, errStalePublish
		}
		return nil, err
	}
	pub.lastVersion = v
	set.Version = v
	pub.lastFingerprint = fp
	pub.pending, pub.pendingFP = nil, ""
	s.deliveredLocked(name, set)
	return set, nil
}

// deliveredLocked counts one successful publish and runs the observer
// hook. A tenant set that published empty (its signatures all retired)
// drops its delivery state: the server re-seeds the version sequence if
// the tenant ever returns, so the learner's books stay bounded by live
// tenants rather than tenants ever seen. Callers hold s.mu.
func (s *Service) deliveredLocked(name string, set *signature.Set) {
	if name == "" {
		s.publishes.Add(1)
	} else {
		s.namedPublishes.Add(1)
		if set.Len() == 0 {
			delete(s.pubs, name)
		}
	}
	if s.cfg.OnPublish != nil {
		s.cfg.OnPublish(name, set)
	}
}

// Stats is a point-in-time view of the learner.
type Stats struct {
	Observed        uint64 `json:"observed"`         // misses admitted past the filter into the intake queue
	SinkDropped     uint64 `json:"sink_dropped"`     // misses dropped at the sink (queue full)
	Admitted        uint64 `json:"admitted"`         // intake samples routed to a reservoir so far
	Sampled         uint64 `json:"sampled"`          // packets stored by a reservoir
	OverflowTenants uint64 `json:"overflow_tenants"` // admissions routed to the shared overflow reservoir
	PendingSamples  int    `json:"pending_samples"`  // packets currently held in reservoirs
	Tenants         int    `json:"tenants"`          // tenants with a private reservoir this epoch

	Clusters         int     `json:"clusters"`
	ClusterMembers   int     `json:"cluster_members"`
	ClusterRejected  uint64  `json:"cluster_rejected"`  // arrivals dropped: table full, nothing close
	ClusterDistances uint64  `json:"cluster_distances"` // full dpkt evaluations against medoids on arrival
	ClusterPruned    uint64  `json:"cluster_pruned"`    // medoids arrivals skipped on the destination bound
	Silhouette       float64 `json:"silhouette"`        // last compaction's medoid silhouette

	Epochs        uint64 `json:"epochs"`
	Candidates    int    `json:"candidates"`     // last distillation
	RejectedBayes int    `json:"rejected_bayes"` // last distillation
	RejectedFP    int    `json:"rejected_fp"`    // last distillation
	Accepted      int    `json:"accepted"`       // last distillation

	Catalog    int    `json:"catalog"`            // signatures currently published (or publishable)
	RetiredSig uint64 `json:"retired_signatures"` // signatures retired because every source cluster went stale

	Publishes      uint64 `json:"publishes"`       // global-set publishes
	NamedPublishes uint64 `json:"named_publishes"` // per-tenant set publishes
	PublishErrors  uint64 `json:"publish_errors"`
	LastVersion    int64  `json:"last_version"` // global set

	CheckpointSaves    uint64 `json:"checkpoint_saves,omitempty"`
	CheckpointErrors   uint64 `json:"checkpoint_errors,omitempty"`
	CheckpointRestored bool   `json:"checkpoint_restored,omitempty"` // this process booted from a checkpoint

	// NamedVersions is the last published version per tenant set.
	NamedVersions map[string]int64 `json:"named_versions,omitempty"`
}

// Stats assembles a snapshot. Safe to call while streaming.
func (s *Service) Stats() Stats {
	st := Stats{
		Observed:        s.observed.Load(),
		SinkDropped:     s.sinkDropped.Load(),
		Admitted:        s.admitted.Load(),
		Sampled:         s.sampled.Load(),
		OverflowTenants: s.overflowTenants.Load(),
		Epochs:          s.epochs.Load(),
		Publishes:       s.publishes.Load(),
		NamedPublishes:  s.namedPublishes.Load(),
		PublishErrors:   s.publishErrors.Load(),
		RetiredSig:      s.retiredSigs.Load(),

		CheckpointSaves:    s.ckptSaves.Load(),
		CheckpointErrors:   s.ckptErrors.Load(),
		CheckpointRestored: s.ckptRestored.Load(),
	}
	s.mu.Lock()
	st.Tenants = len(s.reservoirs)
	for _, r := range s.reservoirs {
		st.PendingSamples += r.size()
	}
	st.PendingSamples += s.overflow.size()
	st.Clusters = s.clusterer.Len()
	st.ClusterMembers = s.clusterer.members()
	st.ClusterRejected = s.clusterer.rejectedCount()
	st.ClusterDistances = s.clusterer.Distances()
	st.ClusterPruned = s.clusterer.Pruned()
	st.Silhouette = s.lastCompact.Silhouette
	st.Candidates = s.lastDistill.Candidates
	st.RejectedBayes = s.lastDistill.RejectedBayes
	st.RejectedFP = s.lastDistill.RejectedFP
	st.Accepted = s.lastDistill.Accepted
	st.Catalog = len(s.catalog)
	for name, pub := range s.pubs {
		if name == "" {
			st.LastVersion = pub.lastVersion
			continue
		}
		if st.NamedVersions == nil {
			st.NamedVersions = make(map[string]int64, len(s.pubs))
		}
		st.NamedVersions[name] = pub.lastVersion
	}
	s.mu.Unlock()
	return st
}

// Close is the owner's last call: after admitting every miss observed
// before it, it writes a final checkpoint when CheckpointPath is set
// (capturing samples that arrived after the last epoch), closes the
// checkpoint journal, and stops the owner. It does not run a final
// epoch; callers that want one (pipe-mode daemons) call RunEpoch first.
// Close is idempotent, and RunEpoch after it returns an error.
func (s *Service) Close() {
	// errClosed only means an earlier Close already stopped the owner.
	_ = s.call(func() {
		if s.cfg.CheckpointPath != "" {
			s.mu.Lock()
			s.saveCheckpointLocked()
			if s.ckpt != nil && s.ckpt.Close() != nil {
				s.ckptErrors.Add(1)
			}
			s.mu.Unlock()
		}
		s.stopped = true
	})
	<-s.loopDone
}

package siggen

import (
	"leaksig/internal/engine"
	"leaksig/internal/httpmodel"
	"leaksig/internal/obs/trace"
)

// sample is one suspect flow in flight from an engine shard to the
// owner goroutine.
type sample struct {
	tenant string
	p      *httpmodel.Packet
}

// missSink adapts the Service's intake to the engine's Sink interface:
// every verdict that matched nothing (a miss — exactly the traffic the
// live signature set cannot explain) is offered to the learner. The
// offer is a single non-blocking channel send, so a saturated learner
// costs the matching hot path nothing beyond a dropped-sample counter —
// detection latency is never held hostage to generation.
type missSink struct {
	svc   *Service
	keyFn func(*httpmodel.Packet) string // nil: every miss is tenant ""
}

// MissSink returns an engine Sink that feeds the service's intake with
// unmatched flows, each labeled with the tenant keyFn gives its packet.
// A nil keyFn labels every miss "" (a single-engine deployment); a pool
// returns one per tenant from PoolConfig.TenantSink, its keyFn naming
// that tenant; one engine serving mixed traffic passes a keyFn that
// reads packet fields like App or Host. keyFn runs on engine shard
// goroutines and must be cheap and concurrency-safe. Pass the sink as
// engine Config.Sink — alone, or combined with other consumers via
// engine.TeeSink. One service may back any number of engines and
// tenants.
func (s *Service) MissSink(keyFn func(*httpmodel.Packet) string) engine.Sink {
	return missSink{svc: s, keyFn: keyFn}
}

func (m missSink) Bind(shard, shards int) engine.ShardSink { return m }

// Batch keeps only packets, never the borrowed verdicts or their Matched
// slices, so the engine's valid-for-the-call rule costs it no copy.
func (m missSink) Batch(vs []engine.Verdict) {
	for _, v := range vs {
		if v.Leak() {
			continue // already explained by a signature; nothing to learn
		}
		tenant := ""
		if m.keyFn != nil {
			tenant = m.keyFn(v.Packet)
		}
		m.svc.Observe(tenant, v.Packet)
	}
}

// Observe offers one unmatched/suspect flow to the learner directly —
// the hook for consumers outside the engine sink path (the flowcontrol
// proxy's miss forwarding, cmd/siggend's HTTP intake). It queues the
// packet for the owner goroutine without blocking; it reports false when
// the queue was full.
func (s *Service) Observe(tenant string, p *httpmodel.Packet) bool {
	// Hold the packet's span before handing it off: Observe runs on the
	// producer's goroutine (often an engine shard, which finishes its own
	// reference right after sink delivery), and the hold keeps the span
	// alive until the learner's side of the trace ends.
	p.Span.Hold()
	select {
	case s.queue <- item{smp: sample{tenant: tenant, p: p}}:
		s.observed.Add(1)
		return true
	default:
		p.Span.Finish() // release the hold; the sample never entered
		s.sinkDropped.Add(1)
		return false
	}
}

// admit routes one queued sample into its tenant's reservoir. Tenants
// past the reservoir-table cap share one overflow reservoir, so tenant
// cardinality (attacker-influenced in an exposed deployment) can never
// grow memory without bound. The owner calls it with s.mu held.
func (s *Service) admit(smp sample) {
	r := s.reservoirs[smp.tenant]
	if r == nil {
		if len(s.reservoirs) >= s.cfg.MaxTenantReservoirs {
			s.overflowTenants.Add(1)
			r = s.overflow
		} else {
			r = newReservoir(s.cfg.ReservoirSize)
			s.reservoirs[smp.tenant] = r
		}
	}
	smp.p.Span.Stamp(trace.StageReservoir)
	if r.offer(smp, s.rng) {
		s.sampled.Add(1)
	}
	s.admitted.Add(1)
	s.newSamples++
}

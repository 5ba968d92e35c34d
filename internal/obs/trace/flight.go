package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Flight event kinds. Kinds are open-ended strings so daemons can record
// their own, but the pipeline's core events use these names.
const (
	KindDrop        = "drop"         // a daemon shed a packet (intake limiter, full learn shipper)
	KindDropBurst   = "drop_burst"   // drop rate crossed the burst threshold
	KindSinkStall   = "sink_stall"   // blocking submit spun past the stall budget
	KindReloadIssue = "reload_issue" // a reload ticket was issued (possibly coalesced)
	KindReloadApply = "reload_apply" // a compiled set was installed
	KindP99Breach   = "p99_breach"   // watchdog saw stage p99 over its ceiling
	KindDegraded    = "degraded"     // daemon fell back to cached signatures (control plane unreachable)
)

// FlightEvent is one structured entry in the flight recorder: what
// happened, where (shard −1 = engine/daemon scope), under which trace (if
// one was in hand), and a kind-specific value plus free-form detail.
type FlightEvent struct {
	TimeNs int64  `json:"time_ns"`
	Kind   string `json:"kind"`
	Shard  int    `json:"shard"`
	Trace  string `json:"trace,omitempty"`
	Value  int64  `json:"value,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// flightStripe is one bounded ring of recent events. Stripes map to
// shards (plus one shared stripe for engine-scope events) so concurrent
// recorders touch disjoint locks.
type flightStripe struct {
	mu   sync.Mutex
	buf  []FlightEvent
	next int    // next write slot
	n    int    // live entries (≤ len(buf))
	seen uint64 // total ever recorded through this stripe
}

func (s *flightStripe) record(ev FlightEvent) {
	s.mu.Lock()
	s.buf[s.next] = ev
	s.next = (s.next + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	}
	s.seen++
	s.mu.Unlock()
}

// snapshot appends the stripe's live events, oldest first.
func (s *flightStripe) snapshot(dst []FlightEvent) []FlightEvent {
	s.mu.Lock()
	start := s.next - s.n
	if start < 0 {
		start += len(s.buf)
	}
	for i := 0; i < s.n; i++ {
		dst = append(dst, s.buf[(start+i)%len(s.buf)])
	}
	s.mu.Unlock()
	return dst
}

// Flight is the always-on flight recorder: striped bounded rings of
// recent FlightEvents plus a trigger hook that fires (rate-limited) on
// the conditions worth dumping over — drop bursts, sink stalls, p99
// breaches. Recording is cheap enough to leave on in production; the
// rings overwrite oldest-first so the recorder always holds the last
// moments before an incident. A nil *Flight is valid everywhere and
// records nothing.
type Flight struct {
	stripes []flightStripe // index shard+1; stripe 0 is engine/daemon scope

	trigger     atomic.Pointer[func(reason string, ev FlightEvent)]
	lastTrigNs  atomic.Int64
	trigMinGap  int64 // ns between trigger firings
	triggers    atomic.Uint64
	suppressed  atomic.Uint64
	dropWin     atomic.Int64  // start of the current drop-burst window (ns)
	dropInWin   atomic.Uint64 // drops recorded in the current window
	burstThresh uint64
}

const (
	flightDefaultDepth  = 256
	flightBurstWindowNs = int64(time.Second)
	flightBurstThresh   = 64 // drops within one window → burst trigger
	flightTrigGapNs     = int64(time.Second)
)

// NewFlight builds a recorder with one stripe per shard plus a shared
// engine-scope stripe, each holding depth recent events (≤0 picks the
// default 256).
func NewFlight(shards, depth int) *Flight {
	if shards < 0 {
		shards = 0
	}
	if depth <= 0 {
		depth = flightDefaultDepth
	}
	f := &Flight{
		stripes:     make([]flightStripe, shards+1),
		trigMinGap:  flightTrigGapNs,
		burstThresh: flightBurstThresh,
	}
	for i := range f.stripes {
		f.stripes[i].buf = make([]FlightEvent, depth)
	}
	return f
}

// SetTrigger installs the dump hook. It is called at most once per
// second, off the recording fast path only in the sense that recording
// itself never blocks on it — the hook runs on the recording goroutine,
// so it must be quick (ship an event, poke a channel).
func (f *Flight) SetTrigger(fn func(reason string, ev FlightEvent)) {
	if f == nil {
		return
	}
	if fn == nil {
		f.trigger.Store(nil)
		return
	}
	f.trigger.Store(&fn)
}

func (f *Flight) stripe(shard int) *flightStripe {
	i := shard + 1
	if i < 0 || i >= len(f.stripes) {
		i = 0
	}
	return &f.stripes[i]
}

// Record appends one event (stamping its time if unset) to the shard's
// stripe. Shard −1 targets the engine/daemon scope stripe.
func (f *Flight) Record(ev FlightEvent) {
	if f == nil {
		return
	}
	if ev.TimeNs == 0 {
		ev.TimeNs = time.Now().UnixNano()
	}
	f.stripe(ev.Shard).record(ev)
}

// RecordDrop notes one packet a daemon shed and detects drop bursts: more
// than burstThresh drops inside one second fires the trigger (once per
// rate-limit window) and logs a drop_burst event alongside the drops.
func (f *Flight) RecordDrop(shard int, traceID string) {
	if f == nil {
		return
	}
	now := time.Now().UnixNano()
	f.stripe(shard).record(FlightEvent{TimeNs: now, Kind: KindDrop, Shard: shard, Trace: traceID})

	win := f.dropWin.Load()
	if now-win > flightBurstWindowNs {
		if f.dropWin.CompareAndSwap(win, now) {
			f.dropInWin.Store(0)
		}
	}
	if f.dropInWin.Add(1) == f.burstThresh {
		ev := FlightEvent{
			TimeNs: now, Kind: KindDropBurst, Shard: shard, Trace: traceID,
			Value: int64(f.burstThresh), Detail: "drops in <1s window",
		}
		f.stripe(shard).record(ev)
		f.fire("drop_burst", ev)
	}
}

// Trigger records the event and fires the dump hook under the rate
// limit — the route for externally detected conditions (stalled sink,
// p99 breach).
func (f *Flight) Trigger(reason string, ev FlightEvent) {
	if f == nil {
		return
	}
	if ev.TimeNs == 0 {
		ev.TimeNs = time.Now().UnixNano()
	}
	f.stripe(ev.Shard).record(ev)
	f.fire(reason, ev)
}

func (f *Flight) fire(reason string, ev FlightEvent) {
	fn := f.trigger.Load()
	if fn == nil {
		return
	}
	last := f.lastTrigNs.Load()
	if ev.TimeNs-last < f.trigMinGap || !f.lastTrigNs.CompareAndSwap(last, ev.TimeNs) {
		f.suppressed.Add(1)
		return
	}
	f.triggers.Add(1)
	(*fn)(reason, ev)
}

// Dump merges every stripe's live events into one time-sorted slice —
// the body of GET /debug/flight.
func (f *Flight) Dump() []FlightEvent {
	if f == nil {
		return nil
	}
	var out []FlightEvent
	for i := range f.stripes {
		out = f.stripes[i].snapshot(out)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TimeNs < out[j].TimeNs })
	return out
}

// FlightStats is the recorder's own accounting.
type FlightStats struct {
	Stripes   int    `json:"stripes"`
	Depth     int    `json:"depth"`
	Recorded  uint64 `json:"recorded"`  // events ever recorded (held + overwritten)
	Held      int    `json:"held"`      // events currently in the rings
	Triggers  uint64 `json:"triggers"`  // dump hook firings
	Throttled uint64 `json:"throttled"` // trigger conditions suppressed by the rate limit
}

// Stats returns the recorder's accounting.
func (f *Flight) Stats() FlightStats {
	if f == nil {
		return FlightStats{}
	}
	st := FlightStats{
		Stripes:   len(f.stripes),
		Triggers:  f.triggers.Load(),
		Throttled: f.suppressed.Load(),
	}
	if len(f.stripes) > 0 {
		st.Depth = len(f.stripes[0].buf)
	}
	for i := range f.stripes {
		s := &f.stripes[i]
		s.mu.Lock()
		st.Recorded += s.seen
		st.Held += s.n
		s.mu.Unlock()
	}
	return st
}

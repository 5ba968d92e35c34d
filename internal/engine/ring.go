package engine

import (
	"sync/atomic"
)

// ring is the bounded lock-free multi-producer single-consumer queue
// feeding one shard's worker — the replacement for the old mutex-guarded
// accumulator + channel hop on the submit path. Producers claim a slot
// with one CAS on the tail ticket and publish with one atomic store;
// the consumer drains runs of published slots with plain loads and a
// single head advance. No mutex, no channel send, and — the point — no
// per-batch slice allocation anywhere on the packet path.
//
// The layout is the classic Vyukov bounded queue: each slot carries a
// sequence number that encodes whose turn it is. seq == pos means the
// slot is free for the producer claiming ticket pos; seq == pos+1 means
// the item at pos is published and readable; after consumption the slot
// is re-armed with seq = pos + capacity for its next lap.
//
// Wakeups use a parked flag plus a one-slot channel. The consumer sets
// parked before re-checking emptiness; producers publish before loading
// parked. Both are sequentially consistent atomics, so either the
// consumer's emptiness check sees the new item or the producer's parked
// load sees the flag — a lost wakeup is impossible (the Dekker pattern).
type ring struct {
	mask  uint64
	slots []ringSlot

	_    [56]byte // keep tail and head off each other's cache line
	tail atomic.Uint64
	_    [56]byte
	head atomic.Uint64
	_    [56]byte

	parked atomic.Int32
	wake   chan struct{}
}

type ringSlot struct {
	seq atomic.Uint64
	it  item
}

// newRing builds a ring with at least the requested capacity, rounded up
// to a power of two. The floor is 2: in a 1-slot ring the published
// marker (pos+1) and the next lap's free marker (pos+capacity) collide,
// letting a producer overwrite an unconsumed item.
func newRing(capacity int) *ring {
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &ring{
		mask:  uint64(n - 1),
		slots: make([]ringSlot, n),
		wake:  make(chan struct{}, 1),
	}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// push enqueues one item, returning false when the ring is full. Safe for
// any number of concurrent producers.
func (r *ring) push(it item) bool {
	for {
		pos := r.tail.Load()
		s := &r.slots[pos&r.mask]
		switch d := int64(s.seq.Load()) - int64(pos); {
		case d == 0:
			if r.tail.CompareAndSwap(pos, pos+1) {
				s.it = it
				s.seq.Store(pos + 1)
				r.nudge()
				return true
			}
		case d < 0:
			return false // a full lap behind: the ring is full
		}
		// d > 0: another producer claimed pos first; reload and retry.
	}
}

// drain pops up to len(buf) published items into buf, returning how many
// it copied. Consumer-side only. It stops at the first unpublished slot,
// so a producer preempted between claim and publish stalls the consumer
// for at most its own slot.
func (r *ring) drain(buf []item) int {
	pos := r.head.Load()
	n := 0
	for n < len(buf) {
		s := &r.slots[pos&r.mask]
		if s.seq.Load() != pos+1 {
			break
		}
		buf[n] = s.it
		s.it.p = nil // drop the packet ref: the ring must not pin drained packets
		s.seq.Store(pos + uint64(len(r.slots)))
		pos++
		n++
	}
	if n > 0 {
		r.head.Store(pos)
	}
	return n
}

// empty reports whether no published item waits at the head.
func (r *ring) empty() bool {
	pos := r.head.Load()
	return r.slots[pos&r.mask].seq.Load() != pos+1
}

// len approximates the occupancy (claimed slots, published or not).
func (r *ring) len() int {
	if d := r.tail.Load() - r.head.Load(); d <= uint64(len(r.slots)) {
		return int(d)
	}
	return len(r.slots)
}

// nudge wakes the consumer if it is parked. A producer calls it after
// publishing.
func (r *ring) nudge() {
	if r.parked.Load() == 1 {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

// park blocks the consumer until an item is published or stop closes.
// Callers must re-check the ring after park returns; stale wakeups are
// possible and benign.
func (r *ring) park(stop <-chan struct{}) {
	r.parked.Store(1)
	if !r.empty() {
		r.parked.Store(0)
		return
	}
	select {
	case <-r.wake:
	case <-stop:
	}
	r.parked.Store(0)
}

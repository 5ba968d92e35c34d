package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"leaksig/internal/detect"
	"leaksig/internal/httpmodel"
	"leaksig/internal/signature"
)

// diffRef rebuilds the engine's pre-ring submit path in miniature: a
// mutex-guarded accumulator that flushes fixed-size batches onto a
// channel, drained by one matching worker. It is the differential
// baseline for the lock-free ring path — same packets in, and the
// per-packet matched-ID decisions must come out identical.
type diffRef struct {
	eng   *detect.Engine
	batch int

	mu  sync.Mutex
	acc []*httpmodel.Packet

	ch  chan []*httpmodel.Packet
	wg  sync.WaitGroup
	out sync.Map // packet ID -> []int matched
}

func newDiffRef(set *signature.Set, batch int) *diffRef {
	r := &diffRef{eng: detect.NewEngine(set), batch: batch, ch: make(chan []*httpmodel.Packet, 64)}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		var sc detect.Scratch
		for b := range r.ch {
			for _, p := range b {
				r.out.Store(p.ID, append([]int(nil), r.eng.MatchInto(p, &sc)...))
			}
		}
	}()
	return r
}

func (r *diffRef) submit(p *httpmodel.Packet) {
	r.mu.Lock()
	r.acc = append(r.acc, p)
	var flush []*httpmodel.Packet
	if len(r.acc) >= r.batch {
		flush, r.acc = r.acc, nil
	}
	r.mu.Unlock()
	if flush != nil {
		r.ch <- flush
	}
}

func (r *diffRef) close() {
	r.mu.Lock()
	rest := r.acc
	r.acc = nil
	r.mu.Unlock()
	if len(rest) > 0 {
		r.ch <- rest
	}
	close(r.ch)
	r.wg.Wait()
}

// diffPacket fabricates one packet from a randomized class: clean (no
// tokens), partial (the shared token only — every signature needs both),
// or a leak against signature k of scratchTestSet.
func diffPacket(id int64, rng *rand.Rand, sigs int) *httpmodel.Packet {
	var path string
	switch rng.Intn(3) {
	case 0:
		path = "/a?x=1"
	case 1:
		path = "/a?shared=&x=1"
	default:
		path = fmt.Sprintf("/a?shared=&tok-%04d=v", rng.Intn(sigs))
	}
	return &httpmodel.Packet{
		ID:     id,
		Host:   fmt.Sprintf("h%d.example", rng.Intn(17)),
		Method: "GET",
		Path:   path,
		Proto:  "HTTP/1.1",
	}
}

// TestDifferentialRingVsChannelSubmit streams randomized multi-producer
// interleavings through the ring-based engine and the channel-based
// reference simultaneously, then requires the per-packet-ID matched-ID
// decisions to agree exactly and every packet to get exactly one
// verdict. It runs at queue depths from a two-slot ring (the floor) to
// one whose capacity exceeds the drain bound, and requires no sink batch
// to exceed min(QueueDepth, maxDrain). Run under -race this also
// exercises the ring's multi-producer publication ordering.
func TestDifferentialRingVsChannelSubmit(t *testing.T) {
	const (
		producers   = 4
		perProducer = 2500
		sigs        = 64
	)
	set := scratchTestSet(sigs)

	for _, depth := range []int{1, 4, 256, 1024} {
		t.Run(fmt.Sprintf("QueueDepth=%d", depth), func(t *testing.T) {
			var (
				got      sync.Map // packet ID -> []int matched
				verdicts atomic.Uint64
				largest  atomic.Int64 // largest batch the sink was handed
			)
			e := New(set, Config{
				Shards: 4, QueueDepth: depth,
				OnVerdict: func(v Verdict) {
					verdicts.Add(1)
					got.Store(v.Packet.ID, append([]int(nil), v.Matched...))
				},
				Sink: BatchCallbackSink(func(vs []Verdict) {
					for n := int64(len(vs)); ; {
						cur := largest.Load()
						if n <= cur || largest.CompareAndSwap(cur, n) {
							break
						}
					}
				}),
			})
			ref := newDiffRef(set, 7)

			var wg sync.WaitGroup
			for w := 0; w < producers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(1000 + w)))
					for i := 0; i < perProducer; i++ {
						p := diffPacket(int64(w*perProducer+i), rng, sigs)
						// Randomize which path sees the packet first, so neither
						// engine's ordering is systematically ahead.
						if rng.Intn(2) == 0 {
							if err := e.Submit(p); err != nil {
								t.Error(err)
								return
							}
							ref.submit(p)
						} else {
							ref.submit(p)
							if err := e.Submit(p); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			e.Close()
			ref.close()

			if n := verdicts.Load(); n != producers*perProducer {
				t.Errorf("ring engine delivered %d verdicts, want exactly %d", n, producers*perProducer)
			}
			if bound := int64(min(depth, maxDrain)); largest.Load() > bound {
				t.Errorf("sink was handed a %d-verdict batch, want <= %d", largest.Load(), bound)
			}
			total := 0
			ref.out.Range(func(id, want any) bool {
				total++
				g, ok := got.Load(id)
				if !ok {
					t.Errorf("packet %d: ring engine produced no verdict", id)
					return false
				}
				gs, ws := g.([]int), want.([]int)
				sort.Ints(gs)
				sort.Ints(ws)
				if len(gs) != len(ws) {
					t.Errorf("packet %d: ring matched %v, channel reference matched %v", id, gs, ws)
					return false
				}
				for i := range gs {
					if gs[i] != ws[i] {
						t.Errorf("packet %d: ring matched %v, channel reference matched %v", id, gs, ws)
						return false
					}
				}
				return true
			})
			if total != producers*perProducer {
				t.Errorf("reference decided %d packets, want %d", total, producers*perProducer)
			}
		})
	}
}

// TestDifferentialVerdictsAcrossReload extends the scratch-safety hammer
// with a decision oracle: while producers stream all four payload
// classes and the main goroutine flips the live set between v1 and v2,
// every verdict must be consistent with the signature-set version it was
// decided under, and no packet may be dropped. Whichever side of a
// reload a packet lands on, its (Version, payload) pair has exactly one
// correct answer.
func TestDifferentialVerdictsAcrossReload(t *testing.T) {
	v1 := tokenSet(1, "alpha-token")
	v2 := tokenSet(2, "beta-token")

	// class -> payload; expected leak is a pure function of (class, version).
	payloads := []string{"zone=1", "alpha-token", "beta-token", "alpha-token&beta-token"}
	expect := func(class int, version int64) bool {
		switch class {
		case 1:
			return version == 1
		case 2:
			return version == 2
		case 3:
			return true
		}
		return false
	}

	const (
		producers   = 3
		perProducer = 4000
	)
	classOf := make([]int, producers*perProducer)
	var verdicts sync.Map // packet ID -> Verdict
	e := New(v1, Config{
		Shards: 2, QueueDepth: 256,
		OnVerdict: func(v Verdict) { verdicts.Store(v.Packet.ID, v) },
	})

	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + w)))
			for i := 0; i < perProducer; i++ {
				id := w*perProducer + i
				class := rng.Intn(len(payloads))
				classOf[id] = class
				p := pkt(int64(id), fmt.Sprintf("h%d.example", rng.Intn(11)), payloads[class])
				if err := e.Submit(p); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			e.Reload(v2)
		} else {
			e.Reload(v1)
		}
	}
	wg.Wait()
	e.Close()

	n := 0
	verdicts.Range(func(id, vv any) bool {
		n++
		v := vv.(Verdict)
		if v.Version != 1 && v.Version != 2 {
			t.Errorf("packet %d: verdict under unknown version %d", id, v.Version)
			return false
		}
		if want := expect(classOf[id.(int64)], v.Version); v.Leak() != want {
			t.Errorf("packet %d (class %d): leak=%v under version %d, want %v",
				id, classOf[id.(int64)], v.Leak(), v.Version, want)
			return false
		}
		return true
	})
	if n != producers*perProducer {
		t.Errorf("verdicts = %d, want %d: packets dropped across reloads", n, producers*perProducer)
	}
	if m := e.Metrics(); m.Processed != m.Ingested {
		t.Errorf("processed %d != ingested %d after drain", m.Processed, m.Ingested)
	}
}

// TestAdaptiveBatchVerdictParity checks that drains of every size, from a
// lone packet up to the full ring, neither lose nor duplicate a packet:
// the leak count over 3,000 submits through two shards must equal the
// number of leaking packets sent.
func TestAdaptiveBatchVerdictParity(t *testing.T) {
	set := tokenSet(1, "udid=f3a9c1d2")
	n := 3000
	var got atomic.Uint64
	e := New(set, Config{
		Shards:     2,
		QueueDepth: 256,
		OnVerdict: func(v Verdict) {
			if v.Leak() {
				got.Add(1)
			}
		},
	})
	want := 0
	for i := 0; i < n; i++ {
		payload := "zone=1"
		if i%5 == 0 {
			payload = "udid=f3a9c1d2"
			want++
		}
		if err := e.Submit(pkt(int64(i), fmt.Sprintf("h%d", i%9), payload)); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	if int(got.Load()) != want {
		t.Fatalf("leaks across drain sizes = %d, want %d", got.Load(), want)
	}
}

package main

// The two workloads that call the library in-process.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"leaksig/internal/engine"
	"leaksig/internal/httpmodel"
	"leaksig/internal/siggen"
	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
)

// --- learn-epoch ------------------------------------------------------------

const (
	learnTenants   = 4
	learnPerTenant = 256
	learnReplay    = 64
)

// learnEpoch is the first half of the leak path: misses from an ad
// module the learner has never seen go through Observe, one RunEpoch
// clusters, distills, gates and publishes over loopback HTTP, the
// engine's watch reloads, and the clock stops when a replay packet of
// that module is flagged.
type learnEpoch struct {
	seed int64

	rng        *rand.Rand
	benign     []*httpmodel.Packet // held-out benign sample for the FP check
	stopServer func()
	svc        *siggen.Service
	eng        *engine.Engine
	cancel     context.CancelFunc
	watch      sync.WaitGroup
	fam        int
}

func (w *learnEpoch) setup() error {
	w.rng = rand.New(rand.NewSource(w.seed))
	tr := genTrace(w.seed)
	normal := tr.env.Normal.Sample(rand.New(rand.NewSource(w.seed)), 1000).Packets
	w.benign = normal[500:]

	base, stop, err := loopback(sigserver.New().HandlerWithPublish(""))
	if err != nil {
		return err
	}
	w.stopServer = stop

	w.svc = siggen.NewService(siggen.Config{
		Publisher: siggen.NewHTTPPublisherFrom(sigserver.NewClient(base, nil)),
		Benign:    normal[:500],
		Seed:      w.seed,
	})
	w.eng = engine.New(nil, engine.Config{Shards: 1})
	ctx, cancel := context.WithCancel(context.Background())
	w.cancel = cancel
	w.watch.Add(1)
	go func() {
		defer w.watch.Done()
		sigserver.NewClient(base, nil).Watch(ctx, 10*time.Second, w.eng.Reload)
	}()
	return nil
}

func (w *learnEpoch) teardown() {
	if w.cancel == nil {
		return
	}
	w.cancel()
	w.watch.Wait()
	w.svc.Close()
	w.eng.Close()
	w.stopServer()
	w.cancel = nil
}

// cycle learns one fresh family and returns first-Observe-to-flagged.
func (w *learnEpoch) cycle(tl *tally) (time.Duration, error) {
	w.fam++
	train := family(w.rng, w.fam, learnTenants*learnPerTenant+learnReplay)
	replay := train[len(train)-learnReplay:]
	train = train[:len(train)-learnReplay]
	tl.attempted++
	if w.eng.MatchPacket(replay[0]) != nil {
		tl.fail("family %d was flagged before it was learned", w.fam)
	}
	t0 := time.Now()
	for i, p := range train {
		// The intake queue drops when full rather than blocking; give
		// the intake goroutine the moment it needs.
		for !w.svc.Observe(tenantName(i%learnTenants), p) {
			time.Sleep(50 * time.Microsecond)
		}
	}
	if _, err := w.svc.RunEpoch(context.Background()); err != nil {
		return 0, fmt.Errorf("RunEpoch: %w", err)
	}
	deadline := t0.Add(30 * time.Second)
	for w.eng.MatchPacket(replay[0]) == nil {
		if time.Now().After(deadline) {
			tl.fail("family %d: replay not flagged 30s after its misses (stats %+v)", w.fam, w.svc.Stats())
			return time.Since(t0), nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	d := time.Since(t0)
	flagged := 0
	for _, p := range replay {
		if w.eng.MatchPacket(p) != nil {
			flagged++
		}
	}
	if flagged*10 < len(replay)*9 {
		tl.fail("family %d: only %d of %d replay packets flagged", w.fam, flagged, len(replay))
	}
	fp := 0
	for _, p := range w.benign {
		if w.eng.MatchPacket(p) != nil {
			fp++
		}
	}
	if fp*100 > len(w.benign) {
		tl.fail("family %d: %d of %d held-out benign packets flagged", w.fam, fp, len(w.benign))
	}
	return d, nil
}

func (w *learnEpoch) run(warm, measure time.Duration) (*outcome, error) {
	pinProcess(&cpus.daemons)
	defer pinProcess(&cpus.all)
	out := &outcome{e2e: metrics{}, info: metrics{}}
	// Warm-up: a cycle costs one distance per live cluster per miss, and
	// live clusters accumulate until staleness pruning balances arrivals,
	// so the learner is warm once the cluster count has stopped growing
	// (and warm has passed). The cap keeps a learner that never settles
	// from warming up forever.
	start := time.Now()
	for n, clusters := 0, -1; n < 16; n++ {
		if _, err := w.cycle(&out.tally); err != nil {
			return nil, err
		}
		c := w.svc.Stats().Clusters
		if c <= clusters && time.Since(start) >= warm {
			break
		}
		clusters = c
	}
	var lat []float64
	for to := time.Now().Add(measure); time.Now().Before(to); {
		d, err := w.cycle(&out.tally)
		if err != nil {
			return nil, err
		}
		lat = append(lat, ms(d))
	}
	p50 := median(lat)
	out.e2e.set("throughput", float64(learnTenants*learnPerTenant)*1000/p50, "1/s")
	out.e2e.set("latency_p50_ms", p50, "ms")
	out.e2e.set("peak_rss_mb", hwmMB(os.Getpid()), "MB")
	out.info.set("learn_to_live_p50_ms", p50, "ms")
	out.info.set("learn_to_live_samples", float64(len(lat)), "count")
	st := w.svc.Stats()
	out.info.set("siggen.clusters", float64(st.Clusters), "count")
	return out, nil
}

// --- match-replay -----------------------------------------------------------

// matchReplay streams the full trace through one engine shard, pass
// after pass, with a batch verdict sink: the library path with no JSON
// and no HTTP. It continues BENCH_engine.json's
// BenchmarkEngineStreaming/large-sigs/shards=1/host.
type matchReplay struct {
	seed int64
	tr   *trace
	set  *signature.Set
	ref  *reference
}

func replaySet(tr *trace, seed int64) *signature.Set {
	set := tr.paperSet(seed)
	rng := rand.New(rand.NewSource(seed))
	set.Signatures = append(set.Signatures, kindedSigs(rng, tr.packets, 200, len(set.Signatures))...)
	return set
}

func (w *matchReplay) setup() error {
	w.tr = genTrace(w.seed)
	w.set = replaySet(w.tr, w.seed)
	w.ref = buildReference(w.set, w.tr.packets)
	return nil
}

func (w *matchReplay) teardown() {}

// pass streams the trace once and checks every verdict it can.
func (w *matchReplay) pass(tl *tally) time.Duration {
	seen := make([]bool, len(w.tr.packets))
	var dup, wrong atomic.Int64
	var firstWrong atomic.Int64
	eng := engine.New(w.set, engine.Config{
		Shards:   1,
		Affinity: engine.AffinityHost,
		Sink: engine.BatchCallbackSink(func(vs []engine.Verdict) {
			for i := range vs {
				idx := int(vs[i].Packet.ID - idBase)
				if seen[idx] {
					dup.Add(1)
				}
				seen[idx] = true
				if w.ref.checked(idx) && vs[i].Leak() != w.ref.leak[idx] {
					if wrong.Add(1) == 1 {
						firstWrong.Store(vs[i].Packet.ID)
					}
				}
			}
		}),
	})
	t0 := time.Now()
	for _, p := range w.tr.packets {
		eng.Submit(p)
	}
	eng.Close()
	d := time.Since(t0)
	tl.attempted += int64(len(seen))
	missing := 0
	for _, s := range seen {
		if !s {
			missing++
		}
	}
	if missing > 0 || dup.Load() > 0 {
		tl.failed += int64(missing) + dup.Load() - 1
		tl.fail("pass: %d verdicts missing, %d duplicated", missing, dup.Load())
	}
	if n := wrong.Load(); n > 0 {
		tl.failed += n - 1
		tl.fail("pass: %d verdicts disagree with the reference, first id %d", n, firstWrong.Load())
	}
	return d
}

func (w *matchReplay) run(warm, measure time.Duration) (*outcome, error) {
	pinProcess(&cpus.daemons)
	defer pinProcess(&cpus.all)
	start := time.Now()
	from, to := start.Add(warm), start.Add(warm+measure)
	out := &outcome{e2e: metrics{}, info: metrics{}}
	var pps, passMS []float64
	for {
		t0 := time.Now()
		if !t0.Before(to) {
			break
		}
		d := w.pass(&out.tally)
		if !t0.Before(from) {
			pps = append(pps, float64(len(w.tr.packets))/d.Seconds())
			passMS = append(passMS, ms(d))
		}
	}
	out.e2e.set("throughput", median(pps), "1/s")
	out.e2e.set("latency_p50_ms", median(passMS), "ms")
	out.e2e.set("peak_rss_mb", hwmMB(os.Getpid()), "MB")
	out.info.set("match_pps", median(pps), "1/s")
	out.info.set("match.passes", float64(len(pps)), "count")
	out.info.set("match.signatures", float64(w.set.Len()), "count")
	return out, nil
}

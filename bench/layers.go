package main

// The traced run (-trace 1): every per-layer metric, from outside the
// program. It replays the workloads' inputs in-process through the same
// exported calls, in the order cmd/leakstream and cmd/sigserver wire
// them, one benchmark-owned span per call; then reads the counters only
// real daemons have (CPU per packet, /stats, the program's own stage
// histograms, reloads per publish) from short runs of the daemon
// workloads. It covers every layer whichever -workload is named, so each
// traced run prints the full per_layer list.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"leaksig/internal/ahocorasick"
	"leaksig/internal/detect"
	"leaksig/internal/distance"
	"leaksig/internal/durable"
	"leaksig/internal/engine"
	"leaksig/internal/httpmodel"
	"leaksig/internal/obs"
	"leaksig/internal/siggen"
	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
)

// layerMetrics is the per_layer list of BENCHMARK.json, name to unit.
var layerMetrics = map[string]string{
	"httpmodel.decode_ns_per_pkt":       "ns",
	"httpmodel.decode_allocs_per_pkt":   "count",
	"obs.ratelimit_ns_per_pkt":          "ns",
	"engine.submit_ns_per_pkt":          "ns",
	"engine.plumbing_ns_per_pkt":        "ns",
	"engine.allocs_per_pkt.count":       "count",
	"engine.allocs_per_pkt.batch":       "count",
	"engine.sync_match_ns_per_pkt":      "ns",
	"detect.match_ns_per_pkt":           "ns",
	"detect.match_allocs_per_pkt":       "count",
	"detect.match_ns_per_pkt.kinded":    "ns",
	"ahocorasick.scan_mb_s":             "MB/s",
	"leakstream.cpu_us_per_pkt":         "us",
	"leakstream.unattributed_share":     "ratio",
	"engine.dropped":                    "count",
	"engine.queue_depth_max":            "count",
	"engine.batch_target":               "count",
	"obs.limited":                       "count",
	"signature.encode_ms.1k":            "ms",
	"signature.decode_validate_ms.1k":   "ms",
	"durable.append_ms.always":          "ms",
	"durable.append_ms.interval":        "ms",
	"durable.append_ms.never":           "ms",
	"sigserver.publish_ms":              "ms",
	"sigserver.notify_ms.w8":            "ms",
	"sigserver.fetch_ms.1k":             "ms",
	"detect.compile_ms.100":             "ms",
	"detect.compile_ms.1k":              "ms",
	"detect.compile_ms.10k":             "ms",
	"detect.compile_ms.1k.conjunction":  "ms",
	"detect.compile_ms.1k.subsequence":  "ms",
	"detect.compile_ms.1k.views":        "ms",
	"ahocorasick.compile_ms.1k":         "ms",
	"ahocorasick.states.1k":             "count",
	"engine.reload_ms.1k":               "ms",
	"engine.pool_reload_ms.t8":          "ms",
	"engine.compiles_per_publish":       "count",
	"siggen.observe_ns_per_pkt":         "ns",
	"siggen.cluster_observe_us_per_pkt": "us",
	"siggen.compact_ms":                 "ms",
	"siggen.epoch_ms":                   "ms",
	"siggen.candidates":                 "count",
	"siggen.accepted":                   "count",
	"distance.pair_us":                  "us",
	"signature.generate_ms":             "ms",
	"signature.bayes_ms":                "ms",
	"stage.ratelimit_us_mean":           "us",
	"stage.enqueue_us_mean":             "us",
	"stage.drain_us_mean":               "us",
	"stage.match_us_mean":               "us",
	"stage.sink_us_mean":                "us",
	"stage.sum_vs_cpu_ratio":            "ratio",
	"trace.daemon_overhead_pct":         "%",
	"trace.overhead_pct":                "%",
	"vet.p99_us":                        "us",
	"vet.p999_us":                       "us",
	"vet.lateness_p99_us":               "us",
	"reload.publish_to_live_tail_ms":    "ms",
	"ingest.body_turnaround_tail_ms":    "ms",
}

// layerReps is how often the traced run repeats each in-process loop.
const layerReps = 3

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func perPkt(d time.Duration, n int) float64 { return float64(d) / float64(n) }

// sigTokens is the distinct token set of a signature set, as patterns.
func sigTokens(set *signature.Set) [][]byte {
	seen := map[string]bool{}
	var out [][]byte
	for _, sig := range set.Signatures {
		for _, tok := range sig.Tokens {
			if !seen[tok] {
				seen[tok] = true
				out = append(out, []byte(tok))
			}
		}
	}
	return out
}

// tracePacketPath replays ingest-stream's and match-replay's inputs
// through httpmodel, obs, engine, detect and ahocorasick.
func tracePacketPath(t *tracer, tr *trace, seed int64, m metrics, tl *tally) {
	paper := tr.paperSet(seed)
	ref := buildReference(paper, tr.packets)
	ps := tr.packets

	// Request-level replay, in leakstream's order: decode every line of a
	// body, pass each packet through the intake limiter, submit it.
	const replayBodies = 40
	bodies := ndjsonBodies(ps[:replayBodies*linesPerBody], linesPerBody)
	limiter := obs.NewRateLimiter(obs.RateLimiterConfig{})
	var verdicts int64
	var vmu sync.Mutex
	eng := engine.New(paper, engine.Config{Shards: 1, OnVerdict: func(engine.Verdict) {
		vmu.Lock()
		verdicts++
		vmu.Unlock()
	}})
	var decodeAllocs uint64
	for req, b := range bodies {
		root := t.open("leakstream.ingest_request", 0, req+1, len(b.lines))
		pkts := make([]*httpmodel.Packet, 0, len(b.lines))
		lines := bytes.Split(bytes.TrimSuffix(b.buf, []byte("\n")), []byte("\n"))
		a0 := mallocs()
		t.do("httpmodel.decode", root, req+1, len(lines), func() {
			for _, line := range lines {
				p := new(httpmodel.Packet)
				if json.Unmarshal(line, p) != nil || p.Validate() != nil {
					tl.fail("replay: line of body %d did not decode", req)
					continue
				}
				pkts = append(pkts, p)
			}
		})
		decodeAllocs += mallocs() - a0
		t.do("obs.ratelimit", root, req+1, len(pkts), func() {
			for _, p := range pkts {
				if !limiter.Allow(p.App) {
					tl.fail("replay: limiter with no rate refused a packet")
				}
			}
		})
		t.do("engine.submit", root, req+1, len(pkts), func() {
			for _, p := range pkts {
				eng.Submit(p)
			}
		})
		t.close(root)
	}
	eng.Close()
	nReq := replayBodies * linesPerBody
	tl.attempted += int64(nReq)
	if verdicts != int64(nReq) {
		tl.fail("replay: %d packets submitted, %d verdicts", nReq, verdicts)
	}
	by := t.byName()
	m.set("httpmodel.decode_ns_per_pkt", float64(by["httpmodel.decode"].selfPerUnit()), "ns")
	m.set("httpmodel.decode_allocs_per_pkt", float64(decodeAllocs)/float64(nReq), "count")
	m.set("obs.ratelimit_ns_per_pkt", float64(by["obs.ratelimit"].selfPerUnit()), "ns")
	m.set("engine.submit_ns_per_pkt", float64(by["engine.submit"].selfPerUnit()), "ns")

	// timed runs loop layerReps times, each run one span, and returns the
	// median duration: this host's clock speed wanders between runs.
	timed := func(name string, loop func()) (time.Duration, []int) {
		var ds []float64
		var ids []int
		for r := 0; r < layerReps; r++ {
			var d time.Duration
			ids = append(ids, t.do(name, 0, 0, len(ps), func() {
				t0 := time.Now()
				loop()
				d = time.Since(t0)
			}))
			ds = append(ds, float64(d))
		}
		return time.Duration(median(ds)), ids
	}

	// The synchronous vet path.
	sync1 := engine.New(paper, engine.Config{Shards: 1})
	syncD, _ := timed("engine.sync_match", func() {
		for i, p := range ps {
			leak := sync1.MatchPacket(p) != nil
			if ref.checked(i) && leak != ref.leak[i] {
				tl.fail("MatchPacket id %d: leak=%v, reference says %v", p.ID, leak, ref.leak[i])
			}
		}
	})
	sync1.Close()
	tl.attempted += int64(layerReps * len(ps))
	m.set("engine.sync_match_ns_per_pkt", perPkt(syncD, len(ps)), "ns")

	// The bare matcher with one scratch, and under it the bare automaton
	// scan over the same fields.
	de := detect.NewEngine(paper)
	sc := de.NewScratch()
	a0 := mallocs()
	matchD, matchSpans := timed("detect.match", func() {
		for _, p := range ps {
			de.MatchInto(p, sc)
		}
	})
	m.set("detect.match_ns_per_pkt", perPkt(matchD, len(ps)), "ns")
	m.set("detect.match_allocs_per_pkt", float64(mallocs()-a0)/float64(layerReps*len(ps)), "count")
	kinded := detect.NewEngine(replaySet(tr, seed))
	kindedD, _ := timed("detect.match_kinded", func() {
		for _, p := range ps {
			kinded.MatchInto(p, sc)
		}
	})
	m.set("detect.match_ns_per_pkt.kinded", perPkt(kindedD, len(ps)), "ns")

	ac := ahocorasick.Compile(sigTokens(paper))
	segs := make([][3][]byte, len(ps))
	var contentBytes int
	for i, p := range ps {
		segs[i] = p.ContentFields()
		contentBytes += len(segs[i][0]) + len(segs[i][1]) + len(segs[i][2])
	}
	occ := make([]uint64, ac.BitsetWords())
	scanD, _ := timed("ahocorasick.scan", func() {
		for i := range segs {
			ac.OccursSegments(occ, segs[i][0], segs[i][1], segs[i][2])
		}
	})
	for _, id := range matchSpans {
		t.derive("ahocorasick.scan_in_match", id, 0, scanD)
	}
	m.set("ahocorasick.scan_mb_s", float64(contentBytes)/1e6/scanD.Seconds(), "MB/s")

	// Streaming passes: count-only and batch sinks, untraced; then the
	// same batch pass with one span per delivered batch.
	pass := func(sink engine.Sink) (time.Duration, uint64) {
		e := engine.New(paper, engine.Config{Shards: 1, Affinity: engine.AffinityHost, Sink: sink})
		a0, t0 := mallocs(), time.Now()
		for _, p := range ps {
			e.Submit(p)
		}
		e.Close()
		return time.Since(t0), mallocs() - a0
	}
	_, countAllocs := pass(engine.NewCountSink())
	m.set("engine.allocs_per_pkt.count", float64(countAllocs)/float64(len(ps)), "count")
	var untracedDs, tracedDs []float64
	var batchAllocs uint64
	for i := 0; i < layerReps; i++ {
		d, a := pass(engine.BatchCallbackSink(func([]engine.Verdict) {}))
		untracedDs, batchAllocs = append(untracedDs, float64(d)), a
		root := t.open("engine.plumbing", 0, 0, len(ps))
		d, _ = pass(engine.BatchCallbackSink(func(vs []engine.Verdict) {
			t.do("engine.sink_batch", root, 0, len(vs), func() {})
		}))
		t.close(root)
		t.derive("detect.match_in_pass", root, 0, matchD)
		tracedDs = append(tracedDs, float64(d))
	}
	untraced, traced := median(untracedDs), median(tracedDs)
	m.set("engine.allocs_per_pkt.batch", float64(batchAllocs)/float64(len(ps)), "count")
	m.set("engine.plumbing_ns_per_pkt", (untraced-float64(matchD))/float64(len(ps)), "ns")
	// Tracing overhead is taken where spans are dense: one per delivered
	// batch on the streaming pass. learn-epoch records three spans per
	// half-second cycle, which no clock here can tell from none.
	m.set("trace.overhead_pct", 100*(traced-untraced)/untraced, "%")
}

// traceSignaturePath replays reload-churn's inputs through signature,
// durable, sigserver, engine, detect and ahocorasick.
func traceSignaturePath(t *tracer, d *dirs, seed int64, m metrics, tl *tally) error {
	rng := rand.New(rand.NewSource(seed))
	compile := func(n int, mix string, reps int) float64 {
		set := synthSet(rng, n, mix, false)
		return medianMS(reps, func() { detect.NewEngine(set) })
	}
	m.set("detect.compile_ms.100", compile(100, "mixed", 9), "ms")
	m.set("detect.compile_ms.1k", compile(1000, "mixed", 7), "ms")
	m.set("detect.compile_ms.10k", compile(10000, "mixed", 3), "ms")
	m.set("detect.compile_ms.1k.conjunction", compile(1000, "conjunction", 5), "ms")
	m.set("detect.compile_ms.1k.subsequence", compile(1000, "subsequence", 5), "ms")
	m.set("detect.compile_ms.1k.views", compile(1000, "views", 5), "ms")

	for _, pol := range []struct {
		name string
		p    durable.FsyncPolicy
	}{{"always", durable.FsyncAlways}, {"interval", durable.FsyncInterval}, {"never", durable.FsyncNever}} {
		j, err := durable.Open(filepath.Join(d.tmp, "probe-"+pol.name+".journal"), durable.JournalConfig{Fsync: pol.p})
		if err != nil {
			return err
		}
		payload := encodeSet(synthSet(rng, 1000, "mixed", false))
		var appendErr error
		v := medianMS(9, func() {
			if err := j.Append(payload); err != nil {
				appendErr = err
			}
		})
		j.Close()
		if appendErr != nil {
			return fmt.Errorf("journal append (%s): %w", pol.name, appendErr)
		}
		m.set("durable.append_ms."+pol.name, v, "ms")
	}

	// The publish path, one root span per publish.
	server := sigserver.New()
	base, stop, err := loopback(server.HandlerWithPublish(""))
	if err != nil {
		return err
	}
	defer stop()
	journal, err := durable.Open(filepath.Join(d.tmp, "probe-path.journal"), durable.JournalConfig{Fsync: durable.FsyncAlways})
	if err != nil {
		return err
	}
	defer journal.Close()
	pool := engine.NewPool(synthSet(rng, 1000, "mixed", false), engine.PoolConfig{Engine: engine.Config{Shards: 1}})
	defer pool.Close()
	for i := 0; i < churnTenants; i++ {
		pool.Tenant(tenantName(i))
	}
	single := engine.New(nil, engine.Config{Shards: 1})
	defer single.Close()
	fetcher := sigserver.NewClient(base, nil)
	watchers := make([]*sigserver.Client, churnTenants)
	for i := range watchers {
		watchers[i] = sigserver.NewClient(base, nil)
	}
	probe := probePacket()
	ctx := context.Background()
	var enc, dec, pub, notify, fetch, reload, poolReload, acCompile []float64
	var states int
	const publishes = 5
	for k := 0; k < publishes; k++ {
		set := synthSet(rng, 1000, "mixed", k%2 == 0)
		root := t.open("reload.publish", 0, k+1, 1)
		var body []byte
		t0 := time.Now()
		t.do("signature.encode", root, k+1, 1, func() { body = encodeSet(set) })
		enc = append(enc, ms(time.Since(t0)))

		var wire *signature.Set
		t0 = time.Now()
		t.do("signature.decode_validate", root, k+1, 1, func() {
			s, err := signature.ReadJSON(bytes.NewReader(body))
			if err != nil || s.Validate() != nil {
				tl.fail("publish %d: set did not survive the wire: %v", k, err)
				return
			}
			wire = s
		})
		dec = append(dec, ms(time.Since(t0)))
		if wire == nil {
			continue
		}

		t.do("durable.append", root, k+1, 1, func() {
			if err := journal.Append(body); err != nil {
				tl.fail("publish %d: journal append: %v", k, err)
			}
		})

		// Eight watchers parked in the long poll before the publish.
		_, before := server.Current()
		var wg sync.WaitGroup
		woke := make([]time.Time, churnTenants)
		wokeAt := make([]int64, churnTenants)
		for i, c := range watchers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wokeAt[i], _ = c.WaitVersion(ctx, before)
				woke[i] = time.Now()
			}()
		}
		// Let the long polls reach the server; a span of its own, so the
		// wait is not charged to the publish.
		t.do("bench.watchers_park", root, k+1, 0, func() { time.Sleep(20 * time.Millisecond) })
		var version int64
		t0 = time.Now()
		t.do("sigserver.publish", root, k+1, 1, func() {
			v, err := server.PublishSet(wire)
			if err != nil {
				tl.fail("publish %d: %v", k, err)
			}
			version = v
		})
		published := time.Now()
		pub = append(pub, ms(published.Sub(t0)))
		t.do("sigserver.notify", root, k+1, 1, wg.Wait)
		last := published
		for i, w := range woke {
			if w.After(last) {
				last = w
			}
			if wokeAt[i] != version {
				tl.fail("publish %d: watcher %d woke at version %d, want %d", k, i, wokeAt[i], version)
			}
		}
		notify = append(notify, ms(last.Sub(published)))

		var fetched *signature.Set
		t0 = time.Now()
		t.do("sigserver.fetch", root, k+1, 1, func() {
			s, _, err := fetcher.Fetch(ctx)
			if err != nil {
				tl.fail("publish %d: fetch: %v", k, err)
				return
			}
			fetched = s
		})
		fetch = append(fetch, ms(time.Since(t0)))
		if fetched == nil {
			continue
		}

		t0 = time.Now()
		prSpan := t.do("engine.pool_reload", root, k+1, 1, func() { pool.Reload(fetched) })
		poolReload = append(poolReload, ms(time.Since(t0)))
		t.close(root)

		// What the pool did inside, measured on its own: one compile per
		// tenant, each an automaton build plus indexing.
		t0 = time.Now()
		detect.NewEngine(fetched)
		oneCompile := time.Since(t0)
		patterns := sigTokens(fetched)
		t0 = time.Now()
		ac := ahocorasick.Compile(patterns)
		oneAC := time.Since(t0)
		acCompile, states = append(acCompile, ms(oneAC)), ac.States()
		cSpan := t.derive("detect.compile", prSpan, 1, churnTenants*oneCompile)
		t.derive("ahocorasick.compile", cSpan, 1, churnTenants*oneAC)

		t0 = time.Now()
		single.Reload(fetched)
		reload = append(reload, ms(time.Since(t0)))

		// Every tenant must now be on the new version and flip the probe.
		tl.attempted++
		for i := 0; i < churnTenants; i++ {
			e := pool.Tenant(tenantName(i))
			if e.Version() != version || (e.MatchPacket(probe) != nil) != (k%2 == 0) {
				tl.fail("publish %d: %s at version %d (want %d), probe leak %v", k, tenantName(i), e.Version(), version, e.MatchPacket(probe) != nil)
			}
		}
	}
	m.set("signature.encode_ms.1k", median(enc), "ms")
	m.set("signature.decode_validate_ms.1k", median(dec), "ms")
	m.set("sigserver.publish_ms", median(pub), "ms")
	m.set("sigserver.notify_ms.w8", median(notify), "ms")
	m.set("sigserver.fetch_ms.1k", median(fetch), "ms")
	m.set("ahocorasick.compile_ms.1k", median(acCompile), "ms")
	m.set("ahocorasick.states.1k", float64(states), "count")
	m.set("engine.reload_ms.1k", median(reload), "ms")
	m.set("engine.pool_reload_ms.t8", median(poolReload), "ms")
	return nil
}

// traceLearnerPath replays learn-epoch's inputs through siggen, distance
// and signature.
func traceLearnerPath(t *tracer, seed int64, m metrics, tl *tally) error {
	w := &learnEpoch{seed: seed}
	if err := w.setup(); err != nil {
		return err
	}
	defer w.teardown()
	var epochs, observes []float64
	for k := 0; k < 4; k++ {
		w.fam++
		train := family(w.rng, w.fam, learnTenants*learnPerTenant+1)
		replay := train[len(train)-1]
		root := t.open("learn.cycle", 0, k+1, 1)
		t0 := time.Now()
		t.do("siggen.observe", root, k+1, len(train)-1, func() {
			for i, p := range train[:len(train)-1] {
				for !w.svc.Observe(tenantName(i%learnTenants), p) {
					time.Sleep(50 * time.Microsecond)
				}
			}
		})
		observes = append(observes, perPkt(time.Since(t0), len(train)-1))
		t1 := time.Now()
		t.do("siggen.epoch", root, k+1, 1, func() {
			if _, err := w.svc.RunEpoch(context.Background()); err != nil {
				tl.fail("RunEpoch: %v", err)
			}
		})
		epochs = append(epochs, ms(time.Since(t1)))
		t.do("learn.wait_live", root, k+1, 1, func() {
			for deadline := time.Now().Add(30 * time.Second); w.eng.MatchPacket(replay) == nil; {
				if time.Now().After(deadline) {
					tl.fail("traced cycle %d: replay never flagged", k)
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		})
		t.close(root)
		tl.attempted++
	}
	st := w.svc.Stats()
	m.set("siggen.observe_ns_per_pkt", median(observes), "ns")
	m.set("siggen.epoch_ms", median(epochs), "ms")
	m.set("siggen.candidates", float64(st.Candidates), "count")
	m.set("siggen.accepted", float64(st.Accepted), "count")

	// The clusterer, the metric and the generators on their own, over the
	// same kind of input: eight families, the table warm after four.
	c := siggen.NewClusterer(siggen.ClusterConfig{}, seed)
	var fams [][]*httpmodel.Packet
	for f := 0; f < 8; f++ {
		fams = append(fams, family(w.rng, 1000+f, 128))
	}
	var obsD time.Duration
	var compacts []float64
	for f, fam := range fams {
		t0 := time.Now()
		for i, p := range fam {
			c.ObserveTenant(p, tenantName(i%learnTenants))
		}
		if f >= 4 {
			obsD += time.Since(t0)
		}
		t0 = time.Now()
		c.Compact()
		compacts = append(compacts, ms(time.Since(t0)))
	}
	m.set("siggen.cluster_observe_us_per_pkt", us(obsD)/float64(4*128), "us")
	m.set("siggen.compact_ms", median(compacts), "ms")

	metric := distance.New(distance.Config{})
	const pairs = 2000
	t0 := time.Now()
	for i := 0; i < pairs; i++ {
		a, b := fams[i%8], fams[(i/8)%8]
		metric.Packet(a[i%128], b[(i*7)%128])
	}
	m.set("distance.pair_us", us(time.Since(t0))/pairs, "us")

	groups := c.Groups(3)
	m.set("signature.generate_ms", medianMS(5, func() { signature.Generate(groups, signature.Options{}) }), "ms")
	m.set("signature.bayes_ms", medianMS(5, func() { signature.GenerateBayes(groups, w.benign, signature.BayesOptions{}) }), "ms")
	return nil
}

// stageMeans scrapes the program's own leaksig_stage_seconds histograms
// and returns the mean of each packet-path stage in microseconds. The
// "ingest" stage is the span's origin stamp and never records a
// duration, so it is not read.
func stageMeans(page []byte) map[string]float64 {
	out := map[string]float64{}
	for _, stage := range []string{"rate_limit", "enqueue", "drain", "match", "sink"} {
		sum := promSum(page, `leaksig_stage_seconds_sum{stage="`+stage+`"}`)
		count := promSum(page, `leaksig_stage_seconds_count{stage="`+stage+`"}`)
		if count > 0 {
			out[stage] = sum / count * 1e6
		}
	}
	return out
}

// traceDaemons runs the daemon workloads briefly for the counters only a
// real child has.
func traceDaemons(d *dirs, seed int64, window time.Duration, m metrics, tl *tally) error {
	absorb := func(o *outcome) {
		tl.attempted += o.attempted
		tl.failed += o.failed
		tl.notes = append(tl.notes, o.notes...)
	}
	run := func(w workload, measure time.Duration, then func(*outcome) error) error {
		defer w.teardown()
		if err := w.setup(); err != nil {
			return err
		}
		o, err := w.run(time.Second, measure)
		if err != nil {
			return err
		}
		absorb(o)
		return then(o)
	}

	var plainPPS float64
	err := run(&ingestStream{d: d, seed: seed, sampleStats: true}, window, func(o *outcome) error {
		plainPPS = o.info["ingest_pps"].Value
		for _, k := range []string{"leakstream.cpu_us_per_pkt", "engine.dropped", "engine.queue_depth_max", "engine.batch_target", "obs.limited", "ingest.body_turnaround_tail_ms"} {
			m[k] = o.info[k]
		}
		return nil
	})
	if err != nil {
		return err
	}

	debugAddr, err := freeAddr()
	if err != nil {
		return err
	}
	traced := &ingestStream{d: d, seed: seed, extraArgs: []string{"-trace-sample", "1", "-debug-addr", debugAddr}}
	err = run(traced, window, func(o *outcome) error {
		page, err := httpGet(debugAddr, "/metrics")
		if err != nil {
			return err
		}
		var sum float64
		for stage, mean := range stageMeans(page) {
			sum += mean
			name := stage
			if stage == "rate_limit" {
				name = "ratelimit"
			}
			m.set("stage."+name+"_us_mean", mean, "us")
		}
		m.set("stage.sum_vs_cpu_ratio", sum/o.info["leakstream.cpu_us_per_pkt"].Value, "ratio")
		m.set("trace.daemon_overhead_pct", 100*(plainPPS-o.info["ingest_pps"].Value)/plainPPS, "%")
		return nil
	})
	if err != nil {
		return err
	}

	err = run(&vetSync{d: d, seed: seed}, window, func(o *outcome) error {
		m.set("vet.p99_us", o.info["vet_p99_us"].Value, "us")
		m.set("vet.p999_us", o.info["vet_p999_us"].Value, "us")
		m["vet.lateness_p99_us"] = o.info["vet.lateness_p99_us"]
		return nil
	})
	if err != nil {
		return err
	}

	return run(&reloadChurn{d: d, seed: seed}, window, func(o *outcome) error {
		m["engine.compiles_per_publish"] = o.info["engine.compiles_per_publish"]
		m.set("reload.publish_to_live_tail_ms", o.info["publish_to_live_tail_ms"].Value, "ms")
		return nil
	})
}

func runLayers(d *dirs, seed int64, measure time.Duration) (*outcome, error) {
	// The benchmark holds the whole trace in memory, which makes each of
	// its own GC cycles far dearer than one in a daemon with a 20 MB heap;
	// fewer cycles keep that cost out of the layers' numbers.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	// The in-process replays run where the in-process workloads run; each
	// daemon workload places itself and frees the process when it ends.
	pinProcess(&cpus.daemons)
	defer pinProcess(&cpus.all)
	out := &outcome{e2e: metrics{}}
	m := out.e2e
	t := newTracer()
	tr := genTrace(seed)

	tracePacketPath(t, tr, seed, m, &out.tally)
	if err := traceSignaturePath(t, d, seed, m, &out.tally); err != nil {
		return nil, err
	}
	if err := traceLearnerPath(t, seed, m, &out.tally); err != nil {
		return nil, err
	}

	if err := traceDaemons(d, seed, max(measure/2, 3*time.Second), m, &out.tally); err != nil {
		return nil, err
	}

	// What the layers leave unexplained of the real child's CPU per packet.
	by := t.byName()
	var layers time.Duration
	for _, name := range []string{"httpmodel.decode", "obs.ratelimit", "engine.submit", "engine.plumbing", "detect.match", "ahocorasick.scan"} {
		layers += by[name].selfPerUnit()
	}
	m.set("leakstream.unattributed_share", 1-us(layers)/m["leakstream.cpu_us_per_pkt"].Value, "ratio")

	for name, unit := range layerMetrics {
		if got, ok := m[name]; !ok || got.Unit != unit {
			return nil, fmt.Errorf("traced run did not produce %s in %s (got %+v)", name, unit, got)
		}
	}
	if err := t.write(d.out); err != nil {
		return nil, err
	}
	if err := writeBreakdown(filepath.Join(d.root, "bench", "BREAKDOWN.md"), by, host(seed, measure), m); err != nil {
		return nil, err
	}
	return out, nil
}

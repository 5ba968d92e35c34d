package leaksig

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, ablation benchmarks for the repository's design choices
// (distance convention, destination term, linkage, singleton clusters), and
// microbenchmarks for the hot paths. Rates are attached as custom
// benchmark metrics (tp@N%, fn@N%, fp@N%), so
//
//	go test -bench=Figure4 -benchmem
//
// prints the series Figure 4 reports.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"leaksig/internal/ahocorasick"
	"leaksig/internal/cluster"
	"leaksig/internal/core"
	"leaksig/internal/detect"
	"leaksig/internal/distance"
	"leaksig/internal/engine"
	"leaksig/internal/eval"
	"leaksig/internal/httpmodel"
	"leaksig/internal/ncd"
	"leaksig/internal/siggen"
	"leaksig/internal/signature"
	"leaksig/internal/trafficgen"
	"leaksig/internal/whois"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *eval.Env
)

// env returns the full-scale dataset (1,188 apps / ~107,859 packets),
// built once per process.
func env() *eval.Env {
	benchEnvOnce.Do(func() {
		benchEnv = eval.NewEnv(trafficgen.Config{Seed: 1})
	})
	return benchEnv
}

// --- Table and figure benchmarks -------------------------------------------

// BenchmarkTableIPermissions regenerates Table I (applications per
// dangerous permission combination).
func BenchmarkTableIPermissions(b *testing.B) {
	e := env()
	b.ResetTimer()
	var rows []eval.TableIRow
	for i := 0; i < b.N; i++ {
		rows = e.TableI()
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(float64(r.Apps), "apps_"+shortCombo(r.Combo.String()))
	}
}

func shortCombo(s string) string {
	if len(s) > 24 {
		return s[:24]
	}
	return s
}

// BenchmarkTableIIDestinations regenerates Table II (packets and apps per
// HTTP host destination).
func BenchmarkTableIIDestinations(b *testing.B) {
	e := env()
	b.ResetTimer()
	var rows []eval.TableIIRow
	for i := 0; i < b.N; i++ {
		rows = e.TableII(26)
	}
	b.StopTimer()
	if len(rows) > 0 {
		b.ReportMetric(float64(rows[0].Packets), "top_host_packets")
		b.ReportMetric(float64(rows[0].Apps), "top_host_apps")
	}
}

// BenchmarkTableIIISensitive regenerates Table III (packets, apps and
// destinations per sensitive-information kind).
func BenchmarkTableIIISensitive(b *testing.B) {
	e := env()
	b.ResetTimer()
	var rows []eval.TableIIIRow
	for i := 0; i < b.N; i++ {
		rows = e.TableIII()
	}
	b.StopTimer()
	for _, r := range rows {
		if r.Kind.String() == "ANDROID ID MD5" {
			b.ReportMetric(float64(r.Packets), "aid_md5_packets")
		}
	}
}

// BenchmarkFigure2DestinationCDF regenerates Figure 2 (cumulative frequency
// distribution of destinations per application).
func BenchmarkFigure2DestinationCDF(b *testing.B) {
	e := env()
	b.ResetTimer()
	var f eval.Figure2Result
	for i := 0; i < b.N; i++ {
		f = e.Figure2()
	}
	b.StopTimer()
	b.ReportMetric(f.Mean, "mean_destinations")
	b.ReportMetric(f.FracOne*100, "pct_one_destination")
	b.ReportMetric(f.FracLE10*100, "pct_le10")
	b.ReportMetric(float64(f.Max), "max_destinations")
}

// BenchmarkFigure4DetectionRate regenerates Figure 4: the full N=100..500
// sweep of signature generation and dataset-wide detection. Custom metrics
// carry the three series.
func BenchmarkFigure4DetectionRate(b *testing.B) {
	e := env()
	b.ResetTimer()
	var pts []eval.Figure4Point
	for i := 0; i < b.N; i++ {
		pts = e.Figure4(eval.Figure4Config{SampleSeed: 42})
	}
	b.StopTimer()
	for _, p := range pts {
		suffix := "@" + itoa(p.N)
		b.ReportMetric(p.TP, "tp"+suffix+"%")
		b.ReportMetric(p.FN, "fn"+suffix+"%")
		b.ReportMetric(p.FP, "fp"+suffix+"%")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- Ablation benchmarks ----------------------------------------------------

// ablationPoint runs the Figure 4 experiment at N=300 under one pipeline
// configuration and reports the rates.
func ablationPoint(b *testing.B, cfg core.Config) {
	e := env()
	b.ResetTimer()
	var pts []eval.Figure4Point
	for i := 0; i < b.N; i++ {
		pts = e.Figure4(eval.Figure4Config{
			Ns:         []int{300},
			SampleSeed: 42,
			Pipeline:   cfg,
		})
	}
	b.StopTimer()
	b.ReportMetric(pts[0].TP, "tp%")
	b.ReportMetric(pts[0].FN, "fn%")
	b.ReportMetric(pts[0].FP, "fp%")
	b.ReportMetric(float64(pts[0].Signatures), "signatures")
}

// BenchmarkAblationDistanceMode compares the normalized destination terms
// (repository default) against the paper's literal formulas, which score
// identical destinations as maximally far apart.
func BenchmarkAblationDistanceMode(b *testing.B) {
	b.Run("normalized", func(b *testing.B) {
		ablationPoint(b, core.Config{Distance: distance.Config{Mode: distance.ModeNormalized}})
	})
	b.Run("literal", func(b *testing.B) {
		ablationPoint(b, core.Config{Distance: distance.Config{Mode: distance.ModeLiteral}})
	})
}

// BenchmarkAblationDestinationTerm isolates the paper's key claim: adding
// the destination distance to the content distance produces better
// module-specific signatures than content alone (§IV-A).
func BenchmarkAblationDestinationTerm(b *testing.B) {
	b.Run("destination+content", func(b *testing.B) {
		ablationPoint(b, core.Config{})
	})
	b.Run("content-only", func(b *testing.B) {
		ablationPoint(b, core.Config{Distance: distance.Config{DestinationWeight: -1}})
	})
}

// BenchmarkAblationLinkage compares the paper's group-average criterion
// with single and complete linkage.
func BenchmarkAblationLinkage(b *testing.B) {
	for _, l := range []cluster.Linkage{cluster.GroupAverage, cluster.Single, cluster.Complete} {
		l := l
		b.Run(l.String(), func(b *testing.B) {
			ablationPoint(b, core.Config{Linkage: l})
		})
	}
}

// BenchmarkAblationSingletonClusters compares the repository default
// (MinClusterSize=2) with the paper's every-cluster signature generation.
func BenchmarkAblationSingletonClusters(b *testing.B) {
	b.Run("skip-singletons", func(b *testing.B) {
		ablationPoint(b, core.Config{Signature: signature.Options{MinClusterSize: 2}})
	})
	b.Run("paper-every-cluster", func(b *testing.B) {
		ablationPoint(b, core.Config{Signature: signature.Options{MinClusterSize: 1}})
	})
}

// BenchmarkExtSignatureTypes compares the paper's conjunction signatures
// with the probabilistic (Bayes) and token-subsequence classes it names as
// future work (§VI), all trained on the same N=300 sample.
func BenchmarkExtSignatureTypes(b *testing.B) {
	e := env()
	b.ResetTimer()
	var rows []eval.SignatureTypeRow
	for i := 0; i < b.N; i++ {
		rows = e.CompareSignatureTypes(300, 42, core.Config{})
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(r.TP, r.Type+"_tp%")
		b.ReportMetric(r.FP, r.Type+"_fp%")
	}
}

// BenchmarkExtWhoisVerifiedDistance runs the N=300 detection point with the
// §VI WHOIS verification wired into the IP term: organizational identity
// replaces raw prefix similarity wherever the registry knows the answer.
func BenchmarkExtWhoisVerifiedDistance(b *testing.B) {
	e := env()
	reg := whois.NewRegistry(e.Dataset.Universe.OrgBlocks())
	b.Run("prefix-only", func(b *testing.B) {
		ablationPoint(b, core.Config{})
	})
	b.Run("whois-verified", func(b *testing.B) {
		ablationPoint(b, core.Config{
			Distance: distance.Config{OrgResolver: reg.MetricResolver()},
		})
	})
}

// --- Microbenchmarks ---------------------------------------------------------

func benchPackets(n int) []*httpmodel.Packet {
	e := env()
	rng := rand.New(rand.NewSource(7))
	return e.Suspicious.Sample(rng, n).Packets
}

// BenchmarkPacketDistance measures one dpkt evaluation (§IV-B/C).
func BenchmarkPacketDistance(b *testing.B) {
	ps := benchPackets(2)
	m := distance.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Packet(ps[0], ps[1])
	}
}

// BenchmarkDistanceMatrix200 measures the parallel 200-packet matrix.
func BenchmarkDistanceMatrix200(b *testing.B) {
	ps := benchPackets(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := distance.New(distance.Config{})
		distance.NewMatrix(m, ps)
	}
}

// BenchmarkClusterNNChain500 measures agglomeration of a 500-point matrix.
func BenchmarkClusterNNChain500(b *testing.B) {
	n := 500
	rng := rand.New(rand.NewSource(1))
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.Float64()
			d[i][j], d[j][i] = v, v
		}
	}
	mx := benchMatrix{d}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.Agglomerate(mx, cluster.GroupAverage)
	}
}

type benchMatrix struct{ d [][]float64 }

func (m benchMatrix) N() int              { return len(m.d) }
func (m benchMatrix) At(i, j int) float64 { return m.d[i][j] }

// BenchmarkSignatureGeneration measures the full pipeline on 200 packets.
func BenchmarkSignatureGeneration(b *testing.B) {
	ps := benchPackets(200)
	pl := core.NewPipeline(core.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.GenerateSignatures(ps)
	}
}

// BenchmarkDetectionThroughput measures signature matching over the full
// 107,859-packet trace; bytes/op approximates scanned content volume.
func BenchmarkDetectionThroughput(b *testing.B) {
	e := env()
	rng := rand.New(rand.NewSource(3))
	sample := e.Suspicious.Sample(rng, 300)
	set := core.NewPipeline(core.Config{}).GenerateSignatures(sample.Packets)
	eng := detect.NewEngine(set)
	var bytes int64
	for _, p := range e.Dataset.Capture.Packets {
		bytes += int64(len(p.Content()))
	}
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.MatchSet(e.Dataset.Capture)
	}
	b.StopTimer()
	b.ReportMetric(float64(e.Dataset.Capture.Len()), "packets")
}

// BenchmarkMatcherDense measures the zero-allocation automaton match
// path in isolation over the full trace. "match-into" is the exact
// per-packet scan+resolve a shard worker runs (MatchInto with one
// persistent Scratch): Aho–Corasick over the content fields, then
// postings-list conjunction resolution. "occurs-segments" is the raw
// automaton segment scan with a reused bitset, no resolution. 0 allocs/op
// is part of the contract (ReportAllocs).
func BenchmarkMatcherDense(b *testing.B) {
	e := env()
	set := benchSignatureSet(300)
	eng := detect.NewEngine(set)
	ps := e.Dataset.Capture.Packets
	var contentBytes int64
	for _, p := range ps {
		contentBytes += int64(len(p.Content()))
	}
	packets := float64(len(ps))
	b.Run("match-into", func(b *testing.B) {
		sc := eng.NewScratch()
		leaks := 0
		b.SetBytes(contentBytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			leaks = 0
			for _, p := range ps {
				if len(eng.MatchInto(p, sc)) > 0 {
					leaks++
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(packets*float64(b.N)/b.Elapsed().Seconds(), "pps")
		b.ReportMetric(float64(leaks), "leaks")
	})
	b.Run("occurs-segments", func(b *testing.B) {
		var patterns [][]byte
		seen := map[string]bool{}
		for _, sig := range set.Signatures {
			for _, tok := range sig.Tokens {
				if !seen[tok] {
					seen[tok] = true
					patterns = append(patterns, []byte(tok))
				}
			}
		}
		m := ahocorasick.Compile(patterns)
		segs := make([][3][]byte, len(ps))
		for i, p := range ps {
			segs[i] = p.ContentFields()
		}
		occ := make([]uint64, m.BitsetWords())
		b.SetBytes(contentBytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range segs {
				m.OccursSegments(occ, s[0], s[1], s[2])
			}
		}
		b.StopTimer()
		b.ReportMetric(packets*float64(b.N)/b.Elapsed().Seconds(), "pps")
		b.ReportMetric(float64(len(patterns)), "tokens")
	})
}

// BenchmarkNCDPair measures the content-distance primitive.
func BenchmarkNCDPair(b *testing.B) {
	ps := benchPackets(2)
	comp := ncd.Default()
	x, y := ps[0].Content(), ps[1].Content()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ncd.Distance(comp, x, y)
	}
}

// --- Streaming engine benchmarks --------------------------------------------

// benchSignatureSet trains a conjunction set on an n-packet suspicious
// sample — small n gives a handful of signatures, large n the full
// production-sized set.
func benchSignatureSet(n int) *signature.Set {
	e := env()
	rng := rand.New(rand.NewSource(3))
	sample := e.Suspicious.Sample(rng, n)
	return core.NewPipeline(core.Config{}).GenerateSignatures(sample.Packets)
}

// BenchmarkEngineStreaming measures the sharded streaming hot path over
// the full trace: single-shard vs GOMAXPROCS shards, small vs large
// signature sets, for both host-affine and round-robin sharding.
func BenchmarkEngineStreaming(b *testing.B) {
	e := env()
	var contentBytes int64
	for _, p := range e.Dataset.Capture.Packets {
		contentBytes += int64(len(p.Content()))
	}
	sets := []struct {
		name string
		n    int
	}{{"small-sigs", 50}, {"large-sigs", 300}}
	// The shards axis is the scaling curve BENCH_engine.json records:
	// fixed 1-2-4-8 rather than GOMAXPROCS, so entries from different
	// hosts stay comparable. Oversubscribing a small box is fine — the
	// flat curve is itself the signal (see ARCHITECTURE.md).
	shardCounts := []int{1, 2, 4, 8}
	for _, sc := range sets {
		set := benchSignatureSet(sc.n)
		for _, shards := range shardCounts {
			for _, aff := range []struct {
				name string
				a    engine.Affinity
			}{{"host", engine.AffinityHost}, {"rr", engine.AffinityNone}} {
				name := fmt.Sprintf("%s/shards=%d/%s", sc.name, shards, aff.name)
				b.Run(name, func(b *testing.B) {
					b.SetBytes(contentBytes)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						streamSet(set, e.Dataset.Capture, engine.Config{
							Shards:   shards,
							Affinity: aff.a,
						})
					}
					b.StopTimer()
					b.ReportMetric(float64(set.Len()), "signatures")
					b.ReportMetric(float64(e.Dataset.Capture.Len()), "packets")
				})
			}
		}
	}
}

// BenchmarkEngineVsBatch pits the streaming engine against the batch
// matcher on identical work — the acceptance gate for the streaming hot
// path: sharded streaming throughput must not trail MatchSetWith.
func BenchmarkEngineVsBatch(b *testing.B) {
	e := env()
	set := benchSignatureSet(300)
	eng := detect.NewEngine(set)
	var contentBytes int64
	for _, p := range e.Dataset.Capture.Packets {
		contentBytes += int64(len(p.Content()))
	}
	b.Run("batch-MatchSetWith", func(b *testing.B) {
		b.SetBytes(contentBytes)
		for i := 0; i < b.N; i++ {
			detect.MatchSetWith(eng, e.Dataset.Capture)
		}
	})
	b.Run("engine-streaming", func(b *testing.B) {
		b.SetBytes(contentBytes)
		for i := 0; i < b.N; i++ {
			streamSet(set, e.Dataset.Capture, engine.Config{})
		}
	})
}

// BenchmarkEngineReload measures a hot signature rollover under load: the
// cost of compiling and swapping a production-sized set while packets
// stream.
func BenchmarkEngineReload(b *testing.B) {
	set := benchSignatureSet(300)
	eng := engine.New(set, engine.Config{})
	defer eng.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Reload(set)
	}
}

// BenchmarkCountOnlySink pits the CountSink against the callback sink on
// the identical full-trace workload. Both ride the same borrowed-batch
// delivery; the callback side does the least work a per-verdict consumer
// can (a Matched copy per leak, one atomic add per verdict), the count
// side two atomic adds per drain, so its packets/s is the engine's
// aggregation ceiling.
func BenchmarkCountOnlySink(b *testing.B) {
	e := env()
	set := benchSignatureSet(10)
	var contentBytes int64
	for _, p := range e.Dataset.Capture.Packets {
		contentBytes += int64(len(p.Content()))
	}
	packets := float64(e.Dataset.Capture.Len())
	stream := func(b *testing.B, cfg engine.Config) {
		b.SetBytes(contentBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng := engine.New(set, cfg)
			for _, p := range e.Dataset.Capture.Packets {
				eng.Submit(p)
			}
			eng.Close()
		}
		b.StopTimer()
		b.ReportMetric(packets*float64(b.N)/b.Elapsed().Seconds(), "pps")
	}
	b.Run("callback-sink", func(b *testing.B) {
		// The minimal aggregating consumer expressible as a callback:
		// engine-wide packet and leak counters shared by every shard.
		var packets, leaks atomic.Uint64
		stream(b, engine.Config{OnVerdict: func(v engine.Verdict) {
			packets.Add(1)
			if v.Leak() {
				leaks.Add(1)
			}
		}})
	})
	b.Run("count-only", func(b *testing.B) {
		stream(b, engine.Config{Sink: engine.NewCountSink()})
	})
}

// BenchmarkPoolMultiTenant streams the full trace through a multi-tenant
// pool, packets routed to per-app-population tenants, recording the
// trajectory of the tenancy layer: routing, per-tenant engines under a
// shared shard budget, and aggregated counters.
func BenchmarkPoolMultiTenant(b *testing.B) {
	e := env()
	var contentBytes int64
	for _, p := range e.Dataset.Capture.Packets {
		contentBytes += int64(len(p.Content()))
	}
	set := benchSignatureSet(50)
	packets := float64(e.Dataset.Capture.Len())
	for _, tenants := range []int{1, 4, 16} {
		// Pre-split the routing so the hash is not part of the measured
		// hot path: the tenant key of each packet is its app population.
		keys := make([]string, e.Dataset.Capture.Len())
		for i, p := range e.Dataset.Capture.Packets {
			h := uint64(14695981039346656037)
			for j := 0; j < len(p.App); j++ {
				h ^= uint64(p.App[j])
				h *= 1099511628211
			}
			keys[i] = fmt.Sprintf("pop-%d", h%uint64(tenants))
		}
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			b.SetBytes(contentBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool := engine.NewPool(set, engine.PoolConfig{
					Engine: engine.Config{Sink: engine.NewCountSink()},
				})
				for j, p := range e.Dataset.Capture.Packets {
					pool.Submit(keys[j], p)
				}
				pool.Close()
			}
			b.StopTimer()
			b.ReportMetric(packets*float64(b.N)/b.Elapsed().Seconds(), "pps")
			b.ReportMetric(float64(tenants), "tenants")
		})
	}
}

// --- Online signature generation benchmarks ---------------------------------

// BenchmarkSiggenIntake measures the learner's intake hot path — the
// per-miss cost an engine shard pays to feed online generation: the
// verdict filter, the non-blocking channel offer, and (on the intake
// goroutine) the per-tenant reservoir admission.
func BenchmarkSiggenIntake(b *testing.B) {
	ps := benchPackets(512)
	for _, tenants := range []int{1, 16} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			svc := siggen.NewService(siggen.Config{
				IntakeDepth:         1 << 16,
				MaxTenantReservoirs: tenants,
			})
			defer svc.Close()
			sinks := make([]engine.ShardSink, tenants)
			for i := range sinks {
				tenant := fmt.Sprintf("tenant-%d", i)
				sinks[i] = svc.MissSink(func(*httpmodel.Packet) string { return tenant }).Bind(0, 1)
			}
			one := make([]engine.Verdict, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				one[0].Packet = ps[i%len(ps)]
				sinks[i%tenants].Batch(one)
			}
			b.StopTimer()
			st := svc.Stats()
			b.ReportMetric(float64(st.SinkDropped)/float64(b.N)*100, "dropped%")
		})
	}
}

// BenchmarkIncrementalCluster measures the rolling clusterer's Observe
// path — one packet's destination bound against every live medoid, and
// a full distance only against the medoids the bound cannot rule out —
// at the cluster table sizes a learner actually runs with, plus the
// periodic Compact. distances/op and pruned/op split the live medoids
// per arrival into the two.
func BenchmarkIncrementalCluster(b *testing.B) {
	ps := benchPackets(2048)
	for _, maxClusters := range []int{8, 32, 64} {
		b.Run(fmt.Sprintf("observe/maxClusters=%d", maxClusters), func(b *testing.B) {
			c := siggen.NewClusterer(siggen.ClusterConfig{MaxClusters: maxClusters}, 1)
			// Warm the table so every observed packet meets a full one.
			for _, p := range ps[:256] {
				c.Observe(p)
			}
			distances, pruned := c.Distances(), c.Pruned()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Observe(ps[i%len(ps)])
			}
			b.StopTimer()
			b.ReportMetric(float64(c.Len()), "clusters")
			b.ReportMetric(float64(c.Distances()-distances)/float64(b.N), "distances/op")
			b.ReportMetric(float64(c.Pruned()-pruned)/float64(b.N), "pruned/op")
		})
	}
	b.Run("compact/maxClusters=32", func(b *testing.B) {
		c := siggen.NewClusterer(siggen.ClusterConfig{MaxClusters: 32}, 1)
		for _, p := range ps[:512] {
			c.Observe(p)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Keep clusters alive across compactions so every epoch does
			// real merge/election work.
			c.Observe(ps[i%len(ps)])
			c.Compact()
		}
	})
}

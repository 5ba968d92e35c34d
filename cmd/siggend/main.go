// Command siggend is the online signature-generation daemon: the server
// half of the paper's Figure 3(a) run as a live loop instead of a
// one-shot pipeline. It ingests suspect flows (misses forwarded by
// leakstream, flowproxy, or any NDJSON producer), maintains rolling
// clusters over a bounded per-tenant sample, distills conjunction
// signatures gated by a Bayes model and a held-out benign corpus, and
// auto-publishes accepted sets to a sigserver — which every watching
// engine hot-reloads. No manual leakgen/leakcluster invocation remains
// in the loop.
//
// Usage:
//
//	siggend -server http://127.0.0.1:8700 -listen :8810 -interval 30s
//	siggend -server http://127.0.0.1:8700 -benign benign.jsonl < misses.jsonl
//	siggend -server http://127.0.0.1:8700 -tenant-by app -tenant-sets < misses.jsonl
//
// With -tenant-sets the learner distills one named set per tenant (the
// -tenant-by key) alongside the global set and publishes each under
// /sets/{tenant}/ with its own version sequence, so pools can pin
// per-population signatures via ReloadTenant instead of sharing one
// flattened set. Signatures whose source clusters go stale are dropped
// from the next published versions (drift retirement).
//
// Packets enter as NDJSON on stdin (pipe mode: a final epoch runs at
// EOF, then the daemon exits unless -listen is set) and/or over HTTP:
//
//	POST /observe — NDJSON packets in, offered to the learner;
//	                responds {"observed":N,"dropped":M}
//	GET  /stats   — learner statistics as JSON
//	GET  /metrics — Prometheus text exposition
//	GET  /healthz — liveness
//	GET  /readyz  — readiness: 503 until the first set publishes
//
// -events-url ships publish and retirement events as batched NDJSON;
// -debug-addr opens a private listener with /metrics and /debug/pprof.
//
// -checkpoint makes the learner crash-safe: reservoirs, clusters, the
// published catalog, and per-set version counters are written through an
// atomic checkpoint each epoch and restored on start, so a restarted
// daemon resumes its version sequences instead of being 409'd by the
// server. -faults (or LEAKSIG_FAULTS) injects deterministic chaos into
// every outbound HTTP call; publishes ride a jittered-retry client with
// a circuit breaker either way. SIGTERM drains the intake, runs a final
// epoch, checkpoints, and flushes the event shipper.
//
// /observe is a write path into fleet signature generation: whoever can
// reach it influences what the learner clusters and ultimately
// publishes. Without -observe-token, bind -listen to loopback (or front
// it with an authenticating proxy) — the same exposure rule as
// sigserver's /publish.
package main

import (
	"bufio"
	"context"
	"crypto/subtle"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"leaksig/internal/capture"
	"leaksig/internal/faultinject"
	"leaksig/internal/httpmodel"
	"leaksig/internal/obs"
	"leaksig/internal/obs/trace"
	"leaksig/internal/resilience"
	"leaksig/internal/siggen"
	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("siggend: ")
	var (
		server       = flag.String("server", "", "sigserver base URL to auto-publish into (empty: generate only, log what would publish)")
		token        = flag.String("token", "", "bearer token for the publish endpoint")
		listen       = flag.String("listen", "", "HTTP intake address (empty: stdin only)")
		obsToken     = flag.String("observe-token", "", "bearer token required on POST /observe (empty: unauthenticated — keep -listen on loopback)")
		interval     = flag.Duration("interval", 30*time.Second, "generation epoch cadence (0: only the final stdin epoch)")
		benignIn     = flag.String("benign", "", "benign capture (JSONL) for the Bayes and held-out FP gates")
		tenantBenign = tenantCaptureFlag{}
		tenantBy     = flag.String("tenant-by", "app", "reservoir tenant key: app | host | none")
		tenants      = flag.Bool("tenant-sets", false, "publish one named set per tenant alongside the global set")

		reservoir   = flag.Int("reservoir", 256, "per-tenant reservoir size")
		maxTenants  = flag.Int("max-tenants", 64, "tenants with private reservoirs; the rest share one")
		maxClusters = flag.Int("max-clusters", 64, "rolling cluster table size")
		maxMembers  = flag.Int("max-members", 64, "member window per cluster")
		minCluster  = flag.Int("min-cluster", 3, "members a cluster needs before emitting a signature")
		join        = flag.Float64("join", 0.22, "cluster join threshold as a fraction of the metric maximum")
		maxFP       = flag.Float64("max-fp", 0.01, "held-out benign fraction a signature may match")
		minSamples  = flag.Int("min-samples", 8, "new samples required before a timed epoch generates")
		seed        = flag.Int64("seed", 1, "sampling seed")
		statsInt    = flag.Duration("stats", 0, "stats reporting interval on stderr (0: off)")
		checkpoint  = flag.String("checkpoint", "", "learner checkpoint file: restore on start, rewrite each epoch and at shutdown (empty: learner state dies with the process)")
		faults      = flag.String("faults", "", `chaos injection spec for outbound HTTP, e.g. "seed=7,reset=0.1,latency_p=0.1,latency=20ms" (empty: read LEAKSIG_FAULTS)`)

		eventsURL   = flag.String("events-url", "", "ship structured events as batched NDJSON POSTs to this endpoint")
		eventsToken = flag.String("events-token", "", "bearer token for -events-url uploads")
		debugAddr   = flag.String("debug-addr", "", "private ops listener: /metrics, /healthz, /debug/pprof, /debug/flight")

		traceSample = flag.Int("trace-sample", 0, "head-sample 1 in N locally-originated packets for stage tracing; forwarded trace IDs are always adopted (0: adopt only)")
	)
	flag.Var(&tenantBenign, "benign-tenant",
		"per-tenant benign capture as name=path (repeatable); candidates attributed to the named tenant must also clear that corpus' FP gate")
	flag.Parse()

	reg := obs.NewRegistry()
	reg.Register(obs.BuildInfoCollector())
	inj, err := faultinject.FromFlag(*faults)
	if err != nil {
		log.Fatal(err)
	}
	if inj != nil {
		log.Printf("chaos: %s", inj)
		reg.Register(obs.FaultCollector(inj))
	}
	var shipper *obs.Shipper
	if *eventsURL != "" {
		shipper = obs.NewShipper(obs.ShipperConfig{
			URL: *eventsURL, Token: *eventsToken, Node: "siggend",
			HTTPClient: inj.Client(nil),
		})
		defer shipper.Close()
		reg.Register(shipper)
	}
	tracer := trace.NewTracer(*traceSample)
	reg.Register(obs.TracerCollector(tracer))
	flight := trace.NewFlight(0, 0)
	reg.Register(obs.FlightCollector(flight))
	if shipper != nil {
		flight.SetTrigger(func(reason string, ev trace.FlightEvent) {
			st := flight.Stats()
			shipper.Ship(obs.Event{
				Type:  "flight",
				Trace: ev.Trace,
				Detail: fmt.Sprintf("reason=%s kind=%s shard=%d value=%d held=%d recorded=%d",
					reason, ev.Kind, ev.Shard, ev.Value, st.Held, st.Recorded),
			})
		})
	}
	var ready atomic.Bool

	var benign []*httpmodel.Packet
	if *benignIn != "" {
		set, err := capture.LoadJSONL(*benignIn)
		if err != nil {
			log.Fatalf("loading benign capture: %v", err)
		}
		benign = set.Packets
		log.Printf("benign corpus: %d packets (half train, half held out)", len(benign))
	}
	var tenantCorpora map[string][]*httpmodel.Packet
	if len(tenantBenign) > 0 {
		tenantCorpora = make(map[string][]*httpmodel.Packet, len(tenantBenign))
		for tenant, path := range tenantBenign {
			set, err := capture.LoadJSONL(path)
			if err != nil {
				log.Fatalf("loading benign capture for tenant %q: %v", tenant, err)
			}
			tenantCorpora[tenant] = set.Packets
			log.Printf("tenant %q benign corpus: %d packets (held out in full)", tenant, set.Len())
		}
	}

	var keyFn func(*httpmodel.Packet) string
	switch *tenantBy {
	case "app":
		keyFn = func(p *httpmodel.Packet) string { return p.App }
	case "host":
		keyFn = func(p *httpmodel.Packet) string { return p.Host }
	case "none":
		keyFn = func(*httpmodel.Packet) string { return "" }
	default:
		log.Fatalf("unknown -tenant-by %q (want app, host, or none)", *tenantBy)
	}

	cfg := siggen.Config{
		Cluster: siggen.ClusterConfig{
			JoinFraction: *join,
			MaxClusters:  *maxClusters,
			MaxMembers:   *maxMembers,
		},
		ReservoirSize:       *reservoir,
		MaxTenantReservoirs: *maxTenants,
		MinClusterSize:      *minCluster,
		Benign:              benign,
		TenantBenign:        tenantCorpora,
		MaxHoldoutFP:        *maxFP,
		GenerateInterval:    *interval,
		MinNewSamples:       *minSamples,
		TenantSets:          *tenants,
		Seed:                *seed,
		Tracer:              tracer,
		OnPublish: func(set *signature.Set) {
			ready.Store(true)
			log.Printf("published version %d: %d signatures", set.Version, set.Len())
			if shipper != nil {
				shipper.Ship(obs.Event{Type: "publish", Version: set.Version, Trace: set.FirstTrace(), Detail: fmt.Sprintf("%d signatures", set.Len())})
			}
		},
		OnRetire: func(n int) {
			log.Printf("retired %d signatures (source clusters went stale)", n)
			if shipper != nil {
				shipper.Ship(obs.Event{Type: "retire", Detail: fmt.Sprintf("%d signatures", n)})
			}
		},
	}
	if *tenants {
		if *tenantBy == "none" {
			log.Fatal("-tenant-sets needs a tenant key; use -tenant-by app or host")
		}
		cfg.OnPublishNamed = func(name string, set *signature.Set) {
			ready.Store(true)
			if name != "" {
				log.Printf("published set %q version %d: %d signatures", name, set.Version, set.Len())
				if shipper != nil {
					shipper.Ship(obs.Event{Type: "publish", Set: name, Version: set.Version, Trace: set.FirstTrace(), Detail: fmt.Sprintf("%d signatures", set.Len())})
				}
			}
		}
	}
	cfg.CheckpointPath = *checkpoint
	if *server != "" {
		pc := sigserver.NewClient(*server, inj.Client(nil))
		pc.SetToken(*token)
		br := resilience.NewBreaker(resilience.BreakerConfig{})
		pc.SetBreaker(br)
		reg.Register(obs.BreakerCollector("publish", br))
		cfg.Publisher = siggen.NewHTTPPublisherFrom(pc)
	}
	svc := siggen.NewService(cfg)
	defer svc.Close()
	reg.Register(obs.SiggenCollector(svc.Stats))
	if *checkpoint != "" && svc.Stats().CheckpointRestored {
		log.Printf("checkpoint %s: learner state restored", *checkpoint)
	}

	if *statsInt > 0 {
		go func() {
			t := time.NewTicker(*statsInt)
			defer t.Stop()
			for range t.C {
				st := svc.Stats()
				log.Printf("stats: observed=%d sampled=%d dropped=%d clusters=%d members=%d epochs=%d publishes=%d v=%d",
					st.Observed, st.Sampled, st.SinkDropped, st.Clusters,
					st.ClusterMembers, st.Epochs, st.Publishes, st.LastVersion)
			}
		}()
	}

	var intake *http.Server
	if *listen != "" {
		intake = &http.Server{Addr: *listen, Handler: handler(svc, keyFn, *obsToken, reg, &ready, tracer)}
		go func() {
			log.Printf("HTTP intake on %s (/observe, /stats, /metrics, /healthz, /readyz)", *listen)
			if err := intake.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Fatal(err)
			}
		}()
	}
	if *debugAddr != "" {
		go func() {
			log.Printf("debug listener on %s (/metrics, /debug/pprof, /debug/flight)", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, obs.DebugHandler(reg, flight)); err != nil {
				log.Fatal(err)
			}
		}()
	}

	if *listen == "" {
		observed, dropped := observeNDJSON(os.Stdin, svc, keyFn, tracer)
		set, err := svc.RunEpoch(context.Background())
		if err != nil {
			log.Printf("final epoch: %v", err)
		}
		switch {
		case set != nil && cfg.Publisher != nil:
			log.Printf("final epoch published version %d (%d signatures)", set.Version, set.Len())
		case set != nil:
			log.Printf("final epoch generated %d signatures (no -server; not published)", set.Len())
		default:
			log.Printf("final epoch published nothing")
		}
		log.Printf("stdin done: %d observed, %d dropped/filtered", observed, dropped)
		return
	}

	// Daemon mode: stdin intake off the main goroutine so SIGTERM is
	// answered even mid-stream, then serve until signalled.
	go func() {
		observed, dropped := observeNDJSON(os.Stdin, svc, keyFn, tracer)
		log.Printf("stdin done: %d observed, %d dropped/filtered", observed, dropped)
	}()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	log.Printf("shutting down: draining intake, final epoch")
	if intake != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		intake.Shutdown(sctx)
		cancel()
	}
	if _, err := svc.RunEpoch(context.Background()); err != nil {
		log.Printf("final epoch: %v", err)
	}
	// Deferred svc.Close writes the final checkpoint; shipper.Close
	// flushes pending event batches.
}

// observeNDJSON offers every NDJSON packet on r to the learner. Packets
// forwarded with a trace ID (the "trace" field leakstream stamps on
// sampled misses) are adopted so their span keeps accumulating stage
// timestamps — reservoir, cluster — inside this process; the intake's
// own reference is released once the learner has taken (or refused) its
// hold.
func observeNDJSON(r io.Reader, svc *siggen.Service, keyFn func(*httpmodel.Packet) string, tracer *trace.Tracer) (observed, dropped int) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		p := new(httpmodel.Packet)
		if err := json.Unmarshal(line, p); err != nil {
			log.Printf("skipping malformed packet line: %v", err)
			dropped++
			continue
		}
		if err := p.Validate(); err != nil {
			log.Printf("skipping invalid packet: %v", err)
			dropped++
			continue
		}
		p.BeginTrace(tracer)
		// Capture before Observe: once the learner owns the packet it may
		// end the trace (niling p.Span) on its own goroutine.
		sp := p.Span
		if svc.Observe(keyFn(p), p) {
			observed++
		} else {
			dropped++
		}
		// The learner holds its own span reference when it admits the
		// packet; drop the intake's.
		sp.Finish()
	}
	if err := sc.Err(); err != nil {
		log.Printf("reading stdin: %v", err)
	}
	return observed, dropped
}

// tenantCaptureFlag collects repeated -benign-tenant name=path pairs.
type tenantCaptureFlag map[string]string

func (f tenantCaptureFlag) String() string {
	parts := make([]string, 0, len(f))
	for tenant, path := range f {
		parts = append(parts, tenant+"="+path)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (f tenantCaptureFlag) Set(v string) error {
	tenant, path, ok := strings.Cut(v, "=")
	if !ok || tenant == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	if _, dup := f[tenant]; dup {
		return fmt.Errorf("tenant %q given twice", tenant)
	}
	f[tenant] = path
	return nil
}

// handler exposes the learner over HTTP. A non-empty obsToken requires
// `Authorization: Bearer <token>` on the intake, since /observe shapes
// what the fleet will eventually enforce.
func handler(svc *siggen.Service, keyFn func(*httpmodel.Packet) string, obsToken string, reg *obs.Registry, ready *atomic.Bool, tracer *trace.Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /observe", func(w http.ResponseWriter, r *http.Request) {
		if obsToken != "" {
			if subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")), []byte("Bearer "+obsToken)) != 1 {
				http.Error(w, "missing or wrong bearer token", http.StatusUnauthorized)
				return
			}
		}
		observed, dropped := observeNDJSON(r.Body, svc, keyFn, tracer)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"observed":%d,"dropped":%d}`+"\n", observed, dropped)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, svc.Stats())
	})
	mux.Handle("GET /metrics", reg.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Not ready until something has published: before that the
		// learner has produced nothing the fleet can enforce.
		if !ready.Load() {
			http.Error(w, "nothing published yet", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready")
	})
	return mux
}

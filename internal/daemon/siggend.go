package daemon

import (
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"leaksig/internal/capture"
	"leaksig/internal/httpmodel"
	"leaksig/internal/obs"
	"leaksig/internal/resilience"
	"leaksig/internal/siggen"
	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
)

// Siggend configures the online signature-generation daemon; each field
// is the cmd/siggend flag its comment names, where the defaults and the
// help text live. Of Ops it takes all but the learn fields.
type Siggend struct {
	Server       string            // -server
	Token        string            // -token
	Listen       string            // -listen
	ObserveToken string            // -observe-token
	Interval     time.Duration     // -interval
	Benign       string            // -benign
	TenantBenign map[string]string // -benign-tenant name=path, repeated
	TenantBy     string            // -tenant-by
	TenantSets   bool              // -tenant-sets

	Reservoir   int           // -reservoir
	MaxTenants  int           // -max-tenants
	MaxClusters int           // -max-clusters
	MaxMembers  int           // -max-members
	MinCluster  int           // -min-cluster
	Join        float64       // -join
	MaxFP       float64       // -max-fp
	MinSamples  int           // -min-samples
	Seed        int64         // -seed
	Stats       time.Duration // -stats
	Checkpoint  string        // -checkpoint

	Ops
}

// Run is the daemon: suspect flows in from stdin and, with Listen, over
// POST /observe; generated sets out to the sigserver. Without Listen it
// returns at stdin EOF (pipe mode); with it, when ctx is cancelled.
// Either way a final epoch runs over what was observed before it
// returns.
func (c Siggend) Run(ctx context.Context, stdin io.Reader, stdout io.Writer) error {
	switch c.TenantBy {
	case "app", "host":
	case "none":
		if c.TenantSets {
			return errors.New("-tenant-sets needs a tenant key; use -tenant-by app or host")
		}
	default:
		return fmt.Errorf("unknown -tenant-by %q (want app, host, or none)", c.TenantBy)
	}

	ops, err := newOps("siggend", c.Ops, 0)
	if err != nil {
		return err
	}
	defer ops.close()

	var benign []*httpmodel.Packet
	if c.Benign != "" {
		set, err := capture.LoadJSONL(c.Benign)
		if err != nil {
			return fmt.Errorf("loading benign capture: %v", err)
		}
		benign = set.Packets
		log.Printf("benign corpus: %d packets (half train, half held out)", len(benign))
	}
	var tenantCorpora map[string][]*httpmodel.Packet
	if len(c.TenantBenign) > 0 {
		tenantCorpora = make(map[string][]*httpmodel.Packet, len(c.TenantBenign))
		for tenant, path := range c.TenantBenign {
			set, err := capture.LoadJSONL(path)
			if err != nil {
				return fmt.Errorf("loading benign capture for tenant %q: %v", tenant, err)
			}
			tenantCorpora[tenant] = set.Packets
			log.Printf("tenant %q benign corpus: %d packets (held out in full)", tenant, set.Len())
		}
	}

	cfg := siggen.Config{
		Cluster: siggen.ClusterConfig{
			JoinFraction: c.Join,
			MaxClusters:  c.MaxClusters,
			MaxMembers:   c.MaxMembers,
		},
		ReservoirSize:       c.Reservoir,
		MaxTenantReservoirs: c.MaxTenants,
		MinClusterSize:      c.MinCluster,
		Benign:              benign,
		TenantBenign:        tenantCorpora,
		MaxHoldoutFP:        c.MaxFP,
		GenerateInterval:    c.Interval,
		MinNewSamples:       c.MinSamples,
		TenantSets:          c.TenantSets,
		Seed:                c.Seed,
		Tracer:              ops.tracer,
		CheckpointPath:      c.Checkpoint,
		// Not ready until something has published: before that the
		// learner has produced nothing the fleet can enforce.
		OnPublish: func(name string, set *signature.Set) {
			ops.ready.Store(true)
			log.Printf("published %s version %d: %d signatures", setLabel(name), set.Version, set.Len())
			ops.ship(obs.Event{
				Type: "publish", Set: name, Version: set.Version,
				Trace: set.FirstTrace(), Detail: fmt.Sprintf("%d signatures", set.Len()),
			})
		},
		OnRetire: func(n int) {
			log.Printf("retired %d signatures (source clusters went stale)", n)
			ops.ship(obs.Event{Type: "retire", Detail: fmt.Sprintf("%d signatures", n)})
		},
	}
	if c.Server != "" {
		// The learner's way into the sigserver: a client on the injected
		// transport, carrying the publish token and a circuit breaker
		// whose state the registry exposes.
		client := sigserver.NewClient(c.Server, ops.client())
		client.SetToken(c.Token)
		br := resilience.NewBreaker(resilience.BreakerConfig{})
		client.SetBreaker(br)
		ops.reg.Register(obs.BreakerCollector("publish", br))
		cfg.Publisher = siggen.NewHTTPPublisherFrom(client)
	}
	svc := siggen.NewService(cfg)
	defer svc.Close()
	ops.reg.Register(obs.SiggenCollector(svc.Stats))
	if c.Checkpoint != "" && svc.Stats().CheckpointRestored {
		log.Printf("checkpoint %s: learner state restored", c.Checkpoint)
	}

	bg := newBackground()
	defer bg.stop()
	if c.Stats > 0 {
		bg.every(c.Stats, func() {
			st := svc.Stats()
			log.Printf("stats: observed=%d sampled=%d dropped=%d clusters=%d members=%d epochs=%d publishes=%d v=%d",
				st.Observed, st.Sampled, st.SinkDropped, st.Clusters,
				st.ClusterMembers, st.Epochs, st.Publishes, st.LastVersion)
		})
	}

	// observe offers every packet of one stream to the learner. Packets
	// forwarded with a trace ID (the "trace" field leakstream stamps on
	// sampled misses) are adopted so their span keeps accumulating stage
	// timestamps — reservoir, cluster — inside this process.
	observe := func(r io.Reader) (observed, dropped int) {
		_, rejected := intake(r, func(p *httpmodel.Packet) error {
			p.BeginTrace(ops.tracer)
			// Capture before Observe: once the learner owns the packet it may
			// end the trace (niling p.Span) on its own goroutine.
			sp := p.Span
			if svc.Observe(tenantKey(c.TenantBy, p), p) {
				observed++
			} else {
				dropped++
			}
			// The learner holds its own span reference when it admits the
			// packet; drop the intake's.
			sp.Finish()
			return nil
		})
		return observed, dropped + rejected
	}

	var hs *http.Server
	if c.Listen != "" {
		hs = &http.Server{Addr: c.Listen, Handler: siggendHandler(ops, svc, c.ObserveToken, observe)}
		log.Printf("HTTP intake on %s (/observe, /stats, /metrics, /healthz, /readyz)", c.Listen)
	}
	if err := ops.serve(ctx, "draining intake, final epoch", hs, func() {
		observed, dropped := observe(stdin)
		log.Printf("stdin done: %d observed, %d dropped/filtered", observed, dropped)
	}); err != nil {
		return err
	}
	bg.stop()
	set, err := svc.RunEpoch(context.Background())
	switch {
	case err != nil:
		log.Printf("final epoch: %v", err)
	case set != nil && cfg.Publisher != nil:
		log.Printf("final epoch published version %d (%d signatures)", set.Version, set.Len())
	case set != nil:
		log.Printf("final epoch generated %d signatures (no -server; not published)", set.Len())
	default:
		log.Printf("final epoch published nothing")
	}
	// Deferred svc.Close writes the final checkpoint; ops.close flushes
	// pending event batches.
	return nil
}

// siggendHandler exposes the learner over HTTP. A non-empty obsToken
// requires `Authorization: Bearer <token>` on the intake, since /observe
// shapes what the fleet will eventually enforce.
func siggendHandler(ops *opsPlane, svc *siggen.Service, obsToken string, observe func(io.Reader) (observed, dropped int)) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /observe", func(w http.ResponseWriter, r *http.Request) {
		if obsToken != "" {
			if subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")), []byte("Bearer "+obsToken)) != 1 {
				http.Error(w, "missing or wrong bearer token", http.StatusUnauthorized)
				return
			}
		}
		observed, dropped := observe(r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"observed":%d,"dropped":%d}`+"\n", observed, dropped)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, svc.Stats())
	})
	ops.mount(mux, "nothing published yet")
	return mux
}

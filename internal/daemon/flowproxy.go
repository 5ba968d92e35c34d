package daemon

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"leaksig/internal/engine"
	"leaksig/internal/flowcontrol"
	"leaksig/internal/httpmodel"
	"leaksig/internal/obs"
	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
)

// Flowproxy configures the on-device flow-control proxy; each field is
// the cmd/flowproxy flag its comment names, where the defaults and the
// help text live. It takes every field of Ops.
type Flowproxy struct {
	Addr    string        // -addr
	Sigs    string        // -sigs
	Server  string        // -server
	Refresh time.Duration // -refresh
	Policy  string        // -policy

	Ops
}

// Run is the proxy: it vets every request arriving on Addr until ctx is
// cancelled, then drains proxied requests and ships the misses still
// buffered for the learner.
//
// With Learn set, every request that matches no signature is shipped to
// Learn's POST /observe, the siggend intake, through the ops plane's
// learn shipper, so the proxied request never waits on the learner.
func (c Flowproxy) Run(ctx context.Context, _ io.Reader, stdout io.Writer) error {
	var pol flowcontrol.Policy
	switch c.Policy {
	case "block":
		pol = flowcontrol.BlockMatched()
	case "log":
		pol = flowcontrol.PolicyFunc(func(p *httpmodel.Packet, matched []int) flowcontrol.Action {
			if len(matched) > 0 {
				log.Printf("LEAK (allowed by policy): %s %s%s matched %v", p.Method, p.Host, p.Path, matched)
			}
			return flowcontrol.Allow
		})
	default:
		return fmt.Errorf("unknown policy %q", c.Policy)
	}

	ops, err := newOps("flowproxy", c.Ops, 1)
	if err != nil {
		return err
	}
	defer ops.close()

	// Readiness: with static signatures (or none) the proxy can vet as
	// soon as it listens; with -server it is not ready until the first
	// watch callback lands a set, since before that it would enforce
	// nothing the fleet has agreed on.
	ops.ready.Store(c.Server == "")

	set := &signature.Set{}
	if c.Sigs != "" {
		if set, err = signature.ReadFile(c.Sigs); err != nil {
			return err
		}
	}

	if ops.shipper != nil {
		// Every decision on a matching request is an ops-plane event —
		// blocked exfiltration and policy-allowed leaks alike. The wrap
		// costs one closure call on the vet path; shipping never blocks.
		inner := pol
		pol = flowcontrol.PolicyFunc(func(p *httpmodel.Packet, matched []int) flowcontrol.Action {
			action := inner.Decide(p, matched)
			if len(matched) > 0 {
				ops.ship(obs.Event{
					Type:    "decision",
					App:     p.App,
					Host:    p.Host,
					Matched: matched,
					Detail:  action.String(),
				})
			}
			return action
		})
	}

	// The engine backend gives the proxy sharded compilation, atomic hot
	// reload, and shared telemetry; its worker shards stay idle (vetting
	// is inline via MatchPacket), costing only parked goroutines.
	eng := engine.New(set, engine.Config{Shards: 1, Flight: ops.flight})
	defer eng.Close()
	var be flowcontrol.Backend = eng
	learnStats := func() (sent, dropped, failed uint64) { return 0, 0, 0 }
	if ops.learn != nil {
		be = flowcontrol.NewObservedBackend(eng, func(p *httpmodel.Packet) {
			// Tag sampled misses with an ID only — the proxy vets inline,
			// so there are no local stage timestamps worth a span; the
			// learner adopts the ID and the stages it stamps downstream
			// carry it through to the published set's provenance.
			if p.Trace == "" {
				p.Trace = ops.tracer.StartID()
			}
			ops.learn.Ship(p)
		})
		learnStats = ops.learn.Counts
	}
	proxy := flowcontrol.NewProxyWith(be, pol, nil)
	fmt.Fprintf(stdout, "flow control proxy on %s with %d signatures (policy: %s)\n",
		c.Addr, set.Len(), c.Policy)

	ops.reg.Register(obs.EngineCollector(eng.Metrics, eng.ShardStats))
	ops.reg.Register(obs.ProxyCollector(proxy.Stats))
	if ops.debug != nil {
		// The main address proxies every verb and path, so the ops plane
		// lives on the debug listener rather than stealing a URL from
		// proxied traffic.
		mux := http.NewServeMux()
		mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
			allowed, blocked := proxy.Stats()
			sent, dropped, _ := learnStats()
			obs.WriteJSON(w, struct {
				Allowed      int64           `json:"allowed"`
				Blocked      int64           `json:"blocked"`
				LearnSent    uint64          `json:"learn_sent"`
				LearnDropped uint64          `json:"learn_dropped"`
				Engine       engine.Snapshot `json:"engine"`
			}{allowed, blocked, sent, dropped, eng.Metrics()})
		})
		mux.Handle("GET /readyz", ops.readyz("no signature set loaded yet"))
		mux.Handle("/", ops.debug.Handler)
		ops.debug.Handler = mux
	}

	bg := newBackground()
	defer bg.stop()
	if c.Server != "" {
		client := sigserver.NewClient(c.Server, ops.client())
		bg.run(func(ctx context.Context) {
			// Watch long-polls the server's /wait endpoint, so updates
			// land within one round trip; -refresh only bounds the retry
			// and fallback cadence.
			watchEnded(ctx, client.Watch(ctx, c.Refresh, func(set *signature.Set) {
				ops.applyReload(set, eng.Reload)
				ops.ready.Store(true)
				log.Printf("signatures updated: %d entries, version %d", set.Len(), set.Version)
			}))
		})
	}
	bg.every(time.Minute, func() {
		allowed, blocked := proxy.Stats()
		m := eng.Metrics()
		line := fmt.Sprintf("stats: %d allowed, %d blocked; engine v%d sigs=%d reloads=%d vetted=%d matched=%d",
			allowed, blocked, m.Version, m.Signatures, m.Reloads, m.SyncVetted, m.SyncMatched)
		if ops.learn != nil {
			sent, dropped, failed := learnStats()
			line += fmt.Sprintf("; learn fwd=%d dropped=%d failed=%d", sent, dropped, failed)
		}
		log.Print(line)
	})

	return ops.serve(ctx, "draining proxied requests", &http.Server{Addr: c.Addr, Handler: proxy}, nil)
}

package leaksig

// Acceptance test for the tracing plane: one head-sampled trace ID must
// survive the whole closed loop — packet ingest, an NDJSON forward hop
// (the flowproxy/leakstream → siggend wire format), the engine miss
// path, the learner's reservoir and clusters, the published set's
// provenance, the sigserver publish and fetch HTTP hops (via the
// X-Leaksig-Trace header), and the watching engine's reload apply —
// with every process boundary crossed the way the daemons cross it.

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"leaksig/internal/engine"
	"leaksig/internal/httpmodel"
	obstrace "leaksig/internal/obs/trace"
	"leaksig/internal/sensitive"
	"leaksig/internal/siggen"
	"leaksig/internal/signature"
	"leaksig/internal/sigserver"
	"leaksig/internal/trafficgen"
)

func TestTraceIDSpansClosedLoop(t *testing.T) {
	ds := trafficgen.Generate(trafficgen.Config{Seed: 77, NumApps: 60, TotalPackets: 5000})
	oracle := sensitive.NewOracle(ds.Device)
	leaking := ds.Capture.Filter(oracle.IsSensitive)
	if leaking.Len() == 0 {
		t.Fatal("degenerate dataset")
	}
	suspects := leaking.Sample(rand.New(rand.NewSource(7)), 200).Packets

	srv := sigserver.New()
	ts := httptest.NewServer(srv.HandlerWithPublish(""))
	defer ts.Close()

	tracer := obstrace.NewTracer(1) // sample everything: determinism over realism
	learner := siggen.NewService(siggen.Config{
		Publisher:      siggen.NewHTTPPublisherFrom(sigserver.NewClient(ts.URL, nil)),
		MinClusterSize: 2,
		Cluster:        siggen.ClusterConfig{MaxClusters: 32},
		Tracer:         tracer,
	})
	defer learner.Close()

	eng := engine.New(nil, engine.Config{Shards: 1, Sink: learner.MissSink(nil)})
	defer eng.Close()

	// The watcher applies reloads the way cmd/leakstream does: adopt the
	// set's provenance trace, apply, stamp the final stage.
	var mu sync.Mutex
	var reloadTrace string
	client := sigserver.NewClient(ts.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		client.Watch(ctx, 50*time.Millisecond, func(set *signature.Set) {
			var id string
			if len(set.Traces) > 0 {
				id = set.Traces[0]
			}
			sp := tracer.Adopt(id)
			start := time.Now()
			eng.Reload(set)
			tracer.Observe(obstrace.StageReloadApply, time.Since(start))
			sp.Stamp(obstrace.StageReloadApply)
			sp.Finish()
			mu.Lock()
			reloadTrace = id
			mu.Unlock()
		})
	}()

	// Ingest: every suspect is sampled at the origin, forwarded across a
	// JSON round trip (the NDJSON miss-forward wire), adopted on the far
	// side, and run through the engine into the learner's intake.
	fed := map[string]bool{}
	for _, p := range suspects {
		p.BeginTrace(tracer)
		if p.Trace == "" {
			t.Fatal("sample-1 tracer left a packet untraced")
		}
		fed[p.Trace] = true
		origin := p.Span
		wire, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		origin.Finish() // the origin process's half of the trace ends here

		q := new(httpmodel.Packet)
		if err := json.Unmarshal(wire, q); err != nil {
			t.Fatal(err)
		}
		if q.Trace != p.Trace {
			t.Fatalf("trace ID lost on the wire: %q != %q", q.Trace, p.Trace)
		}
		q.BeginTrace(tracer) // adopts the forwarded ID, never resamples
		if err := eng.Submit(q); err != nil {
			t.Fatal(err)
		}
	}
	eng.Flush()

	published, err := learner.RunEpoch(ctx)
	if err != nil {
		t.Fatalf("learn epoch: %v", err)
	}
	if published == nil || published.Len() == 0 {
		t.Fatalf("learner published nothing; stats %+v", learner.Stats())
	}

	// The published set carries provenance, and only IDs we fed.
	if len(published.Traces) == 0 {
		t.Fatal("published set carries no provenance traces")
	}
	for _, id := range published.Traces {
		if !fed[id] {
			t.Errorf("published trace %q was never fed", id)
		}
	}

	// The fetch hop: the server surfaces the provenance trace as the
	// X-Leaksig-Trace response header on the set it distributes.
	resp, err := http.Get(ts.URL + "/signatures")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(sigserver.TraceHeader); got != published.Traces[0] {
		t.Errorf("fetch header %s = %q, want %q", sigserver.TraceHeader, got, published.Traces[0])
	}

	// The reload hop: the watcher must see the same trace and apply it.
	deadline := time.Now().Add(10 * time.Second)
	for eng.Version() != published.Version {
		if time.Now().After(deadline) {
			t.Fatalf("engine never reloaded to version %d (at %d)", published.Version, eng.Version())
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	gotReload := reloadTrace
	mu.Unlock()
	if gotReload != published.Traces[0] {
		t.Errorf("reload adopted trace %q, want %q", gotReload, published.Traces[0])
	}

	// The stage histograms must show the whole journey: packet stages
	// from the engine span, miss-path stages from the learner, and the
	// epoch-granular distill/publish/reload observations.
	counts := map[string]uint64{}
	for _, s := range tracer.Snapshot() {
		counts[s.Stage] = s.Count
	}
	for _, stage := range []string{"enqueue", "drain", "match", "sink", "reservoir", "cluster", "distill", "publish", "reload_apply"} {
		if counts[stage] == 0 {
			t.Errorf("stage %q never observed; counts %v", stage, counts)
		}
	}
	st := tracer.Stats()
	if st.Adopted == 0 {
		t.Error("no spans were adopted across the forward hop")
	}
	t.Logf("closed-loop trace: %d sampled, %d adopted, %d finished; provenance %v; stages %v",
		st.Started, st.Adopted, st.Finished, published.Traces, counts)

	cancel()
	<-watchDone
}

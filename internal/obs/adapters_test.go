package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"leaksig/internal/engine"
	"leaksig/internal/httpmodel"
	"leaksig/internal/obs/trace"
	"leaksig/internal/siggen"
	"leaksig/internal/signature"
)

// expose renders one collector through a fresh registry.
func expose(c Collector) string {
	reg := NewRegistry()
	reg.Register(c)
	return reg.expose()
}

func TestEngineCollectorPerShardFamilies(t *testing.T) {
	eng := engine.New(&signature.Set{}, engine.Config{Shards: 2, Sink: engine.NewCountSink()})
	defer eng.Close()
	for i := 0; i < 32; i++ {
		p := httpmodel.Get("example.com", fmt.Sprintf("/p/%d", i)).App("app.a").Build()
		if err := eng.Submit(p); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	eng.Flush()

	out := expose(EngineCollector(eng.Metrics, eng.ShardStats))
	// Every shard gets its own series in each per-shard family.
	for shard := 0; shard < 2; shard++ {
		for _, fam := range []string{
			"leaksig_engine_shard_processed_total",
			"leaksig_engine_shard_matched_total",
			"leaksig_engine_shard_ring_depth",
		} {
			want := fmt.Sprintf(`%s{shard="%d"}`, fam, shard)
			if !strings.Contains(out, want) {
				t.Errorf("exposition missing %s; got:\n%s", want, out)
			}
		}
	}
	// The shard-summed processed counter must agree with the aggregate.
	stats := eng.ShardStats()
	var sum uint64
	for _, s := range stats {
		sum += s.Processed
	}
	if m := eng.Metrics(); sum != m.Processed || m.Processed != 32 {
		t.Errorf("shard processed sum %d vs aggregate %d (want 32)", sum, m.Processed)
	}
}

func TestPoolCollectorExposesShardsAndTenants(t *testing.T) {
	snap := func() engine.PoolSnapshot {
		return engine.PoolSnapshot{
			Tenants:     2,
			Created:     5,
			Evicted:     3,
			ShardBudget: 4,
			ShardsInUse: 6,
			PerTenant: map[string]engine.Snapshot{
				"app.b": {Processed: 7},
				"app.a": {Processed: 9},
			},
		}
	}
	out := expose(PoolCollector(snap))
	for _, want := range []string{
		"leaksig_pool_shard_budget 4",
		"leaksig_pool_shards_in_use 6",
		`leaksig_engine_processed_total{tenant="app.a"} 9`,
		`leaksig_engine_processed_total{tenant="app.b"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, out)
		}
	}
	// Tenant series are emitted in sorted order for diff-stable scrapes.
	if strings.Index(out, `tenant="app.a"`) > strings.Index(out, `tenant="app.b"`) {
		t.Error("tenant series not sorted")
	}
}

// TestPoolCollectorCompilesVersusReloads drives a real pool through one
// pool-wide reload and one pin and reads the two counters back from the
// exposition: the reload installs a generation on each unpinned tenant
// but compiles once, at the pool, so the unlabeled aggregate carries the
// compile and the tenants' own series do not; a pinned tenant compiles
// for itself.
func TestPoolCollectorCompilesVersusReloads(t *testing.T) {
	set := func(v int64) *signature.Set {
		return &signature.Set{Version: v, Signatures: []*signature.Signature{{ID: 1, Tokens: []string{"udid="}, ClusterSize: 2}}}
	}
	pool := engine.NewPool(set(1), engine.PoolConfig{Engine: engine.Config{Shards: 1}})
	defer pool.Close()
	pool.Tenant("app.a")
	pool.Tenant("app.b")
	pool.Reload(set(2))
	pool.ReloadTenant("app.pinned", set(3))
	pool.Tenant("app.pinned")

	out := expose(PoolCollector(pool.Metrics))
	for _, want := range []string{
		"leaksig_engine_compiles_total 3", // NewPool, Reload, the pinned tenant's own
		"leaksig_engine_reloads_total 2",
		`leaksig_engine_compiles_total{tenant="app.a"} 0`,
		`leaksig_engine_reloads_total{tenant="app.a"} 1`,
		`leaksig_engine_compiles_total{tenant="app.b"} 0`,
		`leaksig_engine_compiles_total{tenant="app.pinned"} 1`,
		`leaksig_engine_reloads_total{tenant="app.pinned"} 0`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q; got:\n%s", want, out)
		}
	}
	if last := pool.Metrics().PerTenant["app.a"].LastReload; last <= 0 {
		t.Errorf("tenant on a pool-compiled generation reports LastReload %v, want the compile+install time", last)
	}
}

// TestSiggenCollectorClusterCounters pins the learner's assignment
// counters, whose ratio is the clusterer's prune rate.
func TestSiggenCollectorClusterCounters(t *testing.T) {
	out := expose(SiggenCollector(func() siggen.Stats {
		return siggen.Stats{ClusterRejected: 2, ClusterDistances: 20, ClusterPruned: 127}
	}))
	for _, want := range []string{
		"leaksig_siggen_cluster_rejected_total 2",
		"leaksig_siggen_cluster_distances_total 20",
		"leaksig_siggen_cluster_pruned_total 127",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q; got:\n%s", want, out)
		}
	}
}

func TestTracerCollectorStageFamilies(t *testing.T) {
	tr := trace.NewTracer(1)
	sp := tr.Start()
	if sp == nil {
		t.Fatal("sample-1 tracer did not start a span")
	}
	sp.Stamp(trace.StageIngest)
	sp.Stamp(trace.StageEnqueue)
	sp.Stamp(trace.StageMatch)
	sp.Finish()
	tr.Observe(trace.StageDistill, 2*time.Millisecond)

	out := expose(TracerCollector(tr))
	for _, want := range []string{
		`leaksig_stage_seconds_count{stage="enqueue"} 1`,
		`leaksig_stage_seconds_count{stage="match"} 1`,
		`leaksig_stage_seconds_count{stage="distill"} 1`,
		"leaksig_trace_spans_started_total 1",
		"leaksig_trace_spans_finished_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, out)
		}
	}
	// Every pipeline stage appears in the catalog even when unfed: fixed
	// cardinality is the contract that keeps scrapes diff-stable.
	for _, st := range trace.Stages() {
		want := fmt.Sprintf(`leaksig_stage_seconds_count{stage=%q}`, st)
		if !strings.Contains(out, want) {
			t.Errorf("stage %q missing from catalog", st)
		}
	}
	// A nil tracer contributes nothing rather than panicking.
	if out := expose(TracerCollector(nil)); strings.Contains(out, "leaksig_stage_seconds") {
		t.Error("nil tracer emitted stage families")
	}
}

func TestFlightCollectorFamilies(t *testing.T) {
	f := trace.NewFlight(2, 8)
	f.SetTrigger(func(string, trace.FlightEvent) {})
	f.Record(trace.FlightEvent{Kind: trace.KindReloadIssue, Shard: -1, Value: 1})
	f.Record(trace.FlightEvent{Kind: trace.KindSinkStall, Shard: 1, Value: 64})
	f.Trigger("test", trace.FlightEvent{Kind: trace.KindSinkStall, Shard: 0})

	out := expose(FlightCollector(f))
	for _, want := range []string{
		"leaksig_flight_events_total 3",
		"leaksig_flight_events_held 3",
		"leaksig_flight_triggers_total 1",
		"leaksig_flight_triggers_throttled_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, out)
		}
	}
	if out := expose(FlightCollector(nil)); strings.Contains(out, "leaksig_flight") {
		t.Error("nil flight emitted families")
	}
}

func TestDebugHandlerFlightDump(t *testing.T) {
	f := trace.NewFlight(1, 8)
	f.Record(trace.FlightEvent{Kind: trace.KindDrop, Shard: 0, Trace: "00000000deadbeef"})
	srv := httptest.NewServer(DebugHandler(NewRegistry(), f))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var dump struct {
		Stats  trace.FlightStats   `json:"stats"`
		Events []trace.FlightEvent `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("decoding dump: %v", err)
	}
	if len(dump.Events) != 1 || dump.Events[0].Trace != "00000000deadbeef" {
		t.Fatalf("dump events = %+v", dump.Events)
	}
	if dump.Stats.Recorded != 1 {
		t.Errorf("recorded = %d, want 1", dump.Stats.Recorded)
	}
}

func TestDebugHandlerFlightDumpNilRecorder(t *testing.T) {
	srv := httptest.NewServer(DebugHandler(NewRegistry(), nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump struct {
		Events []trace.FlightEvent `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("decoding dump: %v", err)
	}
	if len(dump.Events) != 0 {
		t.Fatalf("nil recorder dumped events: %+v", dump.Events)
	}
}

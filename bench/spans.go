package main

// Spans owned by the benchmark. The traced run wraps every call into a
// layer's exported functions in one span (name, start, end, parent,
// request id), keeps them in memory, and writes them out when it ends.
// A layer's self time is its span's duration minus its children's.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root
	Req    int    `json:"req"`    // spans of one request share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	// Units is how many items the call covered (packets in a batch,
	// signatures in a set): per-item cost is self time / units.
	Units int `json:"units"`
	// Derived marks a child that could not be observed from outside its
	// parent (ahocorasick.Compile runs inside detect.NewEngine): the same
	// call was timed on its own right after and its duration is charged
	// to the parent's interval.
	Derived bool `json:"derived,omitempty"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do times fn as one span and returns its id.
func (t *tracer) do(name string, parent, req, units int, fn func()) int {
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: int64(start), End: int64(end), Units: units})
	return len(t.spans)
}

// open starts a parent span whose children will be recorded before it
// ends; close stamps its end.
func (t *tracer) open(name string, parent, req, units int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0)), Units: units})
	return len(t.spans)
}

func (t *tracer) close(id int) {
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// derive charges d of parent's interval to a child that was measured
// separately, and returns the child's id.
func (t *tracer) derive(name string, parent, units int, d time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	// Timed apart from its parent, the child can come out a little longer
	// than the interval it is charged to; it cannot have taken more.
	d = min(d, time.Duration(p.End-p.Start))
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: p.Req, Name: name, Start: p.Start, End: p.Start + int64(d), Units: units, Derived: true})
	return len(t.spans)
}

// layerTime aggregates every span of one name.
type layerTime struct {
	Spans int
	Units int
	Total time.Duration
	Self  time.Duration
}

func (l layerTime) selfPerUnit() time.Duration {
	if l.Units == 0 {
		return 0
	}
	return l.Self / time.Duration(l.Units)
}

func (t *tracer) byName() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		l := out[s.Name]
		l.Spans++
		l.Units += s.Units
		l.Total += time.Duration(s.End - s.Start)
		l.Self += time.Duration(s.End - s.Start - child[s.ID])
		out[s.Name] = l
	}
	return out
}

// maxSpansWritten bounds trace.json; aggregates always use every span.
const maxSpansWritten = 20000

func (t *tracer) write(dir string) error {
	t.mu.Lock()
	spans := t.spans
	if len(spans) > maxSpansWritten {
		spans = spans[:maxSpansWritten]
	}
	b, err := json.Marshal(map[string]any{"spans_recorded": len(t.spans), "spans": spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), b, 0o644)
}

// breakdownRow names the spans one table row sums.
type breakdownRow struct{ label, span string }

// writeBreakdown renders the two tables ARCHITECTURE.md is meant to
// carry: where a packet's microseconds go and where a signature's
// milliseconds go, from span self times.
func writeBreakdown(path string, layers map[string]layerTime, host hostFacts, extra metrics) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Breakdown (generated by `bench -trace 1`; do not edit)\n\n")
	fmt.Fprintf(&b, "Host: nproc %d, GOMAXPROCS %d, %s, seed %d. Self time = span minus child spans; spans are the benchmark's own, taken around exported calls.\n\n",
		host.NProc, host.GOMAXPROCS, host.GoVersion, host.Seed)

	table := func(title, unit string, scale float64, rows []breakdownRow, footer string) {
		var sum float64
		vals := make([]float64, len(rows))
		for i, r := range rows {
			vals[i] = float64(layers[r.span].selfPerUnit()) / scale
			sum += vals[i]
		}
		fmt.Fprintf(&b, "## %s\n\n| layer (package.call) | self %s | share |\n|---|---:|---:|\n", title, unit)
		for i, r := range rows {
			fmt.Fprintf(&b, "| %s | %.3f | %.1f%% |\n", r.label, vals[i], 100*vals[i]/sum)
		}
		fmt.Fprintf(&b, "| **sum of layers** | **%.3f** | 100%% |\n\n%s\n\n", sum, footer)
	}

	cpu := extra["leakstream.cpu_us_per_pkt"].Value
	table("Where a packet's microseconds go (ingest-stream, per packet)", "µs", 1e3, []breakdownRow{
		{"httpmodel: json.Unmarshal + Validate", "httpmodel.decode"},
		{"obs: RateLimiter.Allow", "obs.ratelimit"},
		{"engine: Submit (ring enqueue)", "engine.submit"},
		{"engine: worker plumbing around the match (drain, verdict batch, sink)", "engine.plumbing"},
		{"detect: MatchInto resolve (postings, host buckets)", "detect.match"},
		{"ahocorasick: segment scan", "ahocorasick.scan"},
	}, fmt.Sprintf("The real leakstream child spent %.3f µs of CPU per packet; the share the layers above do not explain (HTTP server, verdict encode, pipe write, GC) is `leakstream.unattributed_share` = %.3f.",
		cpu, extra["leakstream.unattributed_share"].Value))

	table("Where a signature's milliseconds go (reload-churn, per publish of a 1,000-signature set, 8 tenants)", "ms", 1e6, []breakdownRow{
		{"signature: Set.WriteJSON (publisher side)", "signature.encode"},
		{"signature: ReadJSON + Validate (server side)", "signature.decode_validate"},
		{"durable: Journal.Append, fsync always", "durable.append"},
		{"sigserver: Server.PublishSet", "sigserver.publish"},
		{"sigserver: wake 8 long-poll watchers", "sigserver.notify"},
		{"sigserver: Client.Fetch (HTTP + decode)", "sigserver.fetch"},
		{"engine: Pool.Reload bookkeeping around 8 compiles", "engine.pool_reload"},
		{"detect: NewEngine x 8 (index, programs)", "detect.compile"},
		{"ahocorasick: Compile x 8 (inside detect.NewEngine)", "ahocorasick.compile"},
	}, fmt.Sprintf("`engine.compiles_per_publish` measured on the real daemons: %.0f.", extra["engine.compiles_per_publish"].Value))

	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "## Every span name\n\n| span | spans | units | total ms | self ms |\n|---|---:|---:|---:|---:|\n")
	for _, n := range names {
		l := layers[n]
		fmt.Fprintf(&b, "| %s | %d | %d | %.3f | %.3f |\n", n, l.Spans, l.Units, ms(l.Total), ms(l.Self))
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

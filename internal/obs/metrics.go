// Package obs is the fleet's observability substrate: Prometheus
// text-format exposition, structured event shipping, and per-tenant
// intake accounting, built on the standard library alone so every daemon
// can afford to link it.
//
// The package deliberately splits instrumentation into two postures:
//
//   - Stateful instruments (the unexported counter and histogram, and
//     the intake rate limiter's tenant table) for code that counts as it
//     goes — the event shipper's drop accounting, the limiter's
//     per-tenant tallies.
//   - Snapshot collectors (Collector / CollectorFunc) for subsystems that
//     already keep rich internal snapshots — engine.Snapshot,
//     engine.PoolSnapshot, siggen.Stats, sigserver.ServerStats — which a
//     scrape projects into metric families at read time. The hot paths
//     stay untouched: nothing in the match loop knows this package
//     exists.
//
// A Registry aggregates both and serves GET /metrics in the Prometheus
// text exposition format (version 0.0.4). Label cardinality is the
// operator's contract: the only unbounded-looking label is `tenant`, and
// every emitter bounds it by construction (pool MaxTenants, limiter
// table size, learner reservoir caps) — see ARCHITECTURE.md
// "Observability".
package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair on a sample.
type Label struct {
	Name  string
	Value string
}

// label is shorthand for constructing a Label.
func label(name, value string) Label { return Label{Name: name, Value: value} }

// kind is a metric family's TYPE line.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// sample is one exposition line: a metric name (already including any
// _bucket/_sum/_count suffix), its labels, and the value.
type sample struct {
	name   string
	labels []Label
	value  float64
}

// family groups every sample sharing one metric name under one HELP/TYPE
// header, as the exposition format requires.
type family struct {
	name    string
	help    string
	kind    kind
	samples []sample
}

// MetricWriter accumulates samples during one collection pass and
// renders them grouped by family. Collectors receive one per scrape; it
// is not safe for concurrent use (each scrape drives collectors
// sequentially).
type MetricWriter struct {
	order    []string
	families map[string]*family
}

func newMetricWriter() *MetricWriter {
	return &MetricWriter{families: make(map[string]*family)}
}

func (m *MetricWriter) familyFor(name, help string, k kind) *family {
	f := m.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k}
		m.families[name] = f
		m.order = append(m.order, name)
	}
	return f
}

// Counter emits one counter sample. Counters must be cumulative and
// monotonically non-decreasing; by convention their names end in _total.
func (m *MetricWriter) Counter(name, help string, v float64, labels ...Label) {
	f := m.familyFor(name, help, kindCounter)
	f.samples = append(f.samples, sample{name: name, labels: labels, value: v})
}

// Gauge emits one gauge sample — a value that can go up and down.
func (m *MetricWriter) Gauge(name, help string, v float64, labels ...Label) {
	f := m.familyFor(name, help, kindGauge)
	f.samples = append(f.samples, sample{name: name, labels: labels, value: v})
}

// histogram emits one full fixed-bucket histogram: counts[i] is the
// number of observations in (-inf, buckets[i]]; count and sum cover all
// observations (the implicit +Inf bucket equals count).
func (m *MetricWriter) histogram(name, help string, buckets []float64, counts []uint64, count uint64, sum float64, labels ...Label) {
	f := m.familyFor(name, help, kindHistogram)
	cum := uint64(0)
	for i, le := range buckets {
		cum += counts[i]
		ls := append(append([]Label{}, labels...), label("le", formatFloat(le)))
		f.samples = append(f.samples, sample{name: name + "_bucket", labels: ls, value: float64(cum)})
	}
	inf := append(append([]Label{}, labels...), label("le", "+Inf"))
	f.samples = append(f.samples, sample{name: name + "_bucket", labels: inf, value: float64(count)})
	f.samples = append(f.samples, sample{name: name + "_sum", labels: labels, value: sum})
	f.samples = append(f.samples, sample{name: name + "_count", labels: labels, value: float64(count)})
}

// render writes the accumulated families in first-seen order.
func (m *MetricWriter) render(sb *strings.Builder) {
	for _, name := range m.order {
		f := m.families[name]
		sb.WriteString("# HELP ")
		sb.WriteString(f.name)
		sb.WriteByte(' ')
		sb.WriteString(escapeHelp(f.help))
		sb.WriteByte('\n')
		sb.WriteString("# TYPE ")
		sb.WriteString(f.name)
		sb.WriteByte(' ')
		sb.WriteString(string(f.kind))
		sb.WriteByte('\n')
		for _, s := range f.samples {
			sb.WriteString(s.name)
			if len(s.labels) > 0 {
				sb.WriteByte('{')
				for i, l := range s.labels {
					if i > 0 {
						sb.WriteByte(',')
					}
					sb.WriteString(l.Name)
					sb.WriteString(`="`)
					sb.WriteString(escapeLabel(l.Value))
					sb.WriteByte('"')
				}
				sb.WriteByte('}')
			}
			sb.WriteByte(' ')
			sb.WriteString(formatFloat(s.value))
			sb.WriteByte('\n')
		}
	}
}

// formatFloat renders a value the way Prometheus expects: shortest
// round-trip form, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
func escapeHelp(s string) string  { return helpEscaper.Replace(s) }

// Collector contributes samples to one scrape.
type Collector interface {
	Collect(m *MetricWriter)
}

// CollectorFunc adapts a function to Collector.
type CollectorFunc func(m *MetricWriter)

// Collect implements Collector.
func (f CollectorFunc) Collect(m *MetricWriter) { f(m) }

// Registry aggregates collectors and serves them as one exposition
// document. The zero value is unusable; construct with NewRegistry. All
// methods are safe for concurrent use; collectors run sequentially per
// scrape on the scraping goroutine.
type Registry struct {
	mu         sync.RWMutex
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a collector to every future scrape. Collectors emitting
// the same family name must agree on its type and help; the first
// registration wins the header.
func (r *Registry) Register(c Collector) {
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// expose renders one scrape in the Prometheus text format.
func (r *Registry) expose() string {
	r.mu.RLock()
	cs := append([]Collector(nil), r.collectors...)
	r.mu.RUnlock()
	m := newMetricWriter()
	for _, c := range cs {
		c.Collect(m)
	}
	var sb strings.Builder
	m.render(&sb)
	return sb.String()
}

// Handler serves GET /metrics scrapes of this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		body := r.expose()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		fmt.Fprint(w, body)
	})
}

// counter is a monotonically increasing cumulative count. The zero value
// is usable; all methods are safe for concurrent use.
type counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *counter) Inc() { c.n.Add(1) }

// Add adds n (which must be non-negative; counters never decrease).
func (c *counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *counter) Value() uint64 { return c.n.Load() }

// histogram counts observations into fixed buckets chosen at
// construction. Construct with newHistogram; all methods are safe for
// concurrent use. Observation is a binary search plus two atomic adds —
// cheap enough for per-batch (not per-packet) paths.
type histogram struct {
	buckets []float64 // upper bounds, strictly increasing
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// newHistogram builds a histogram over the given strictly increasing
// upper bounds (the +Inf bucket is implicit).
func newHistogram(buckets []float64) *histogram {
	b := append([]float64(nil), buckets...)
	sort.Float64s(b)
	return &histogram{buckets: b, counts: make([]atomic.Uint64, len(b))}
}

// expBuckets returns n bounds growing geometrically from start by factor
// — the usual latency/size ladder.
func expBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value.
func (h *histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v)
	if i < len(h.counts) {
		h.counts[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Write emits the histogram into one collection pass.
func (h *histogram) Write(m *MetricWriter, name, help string, labels ...Label) {
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	m.histogram(name, help, h.buckets, counts, h.count.Load(), math.Float64frombits(h.sumBits.Load()), labels...)
}

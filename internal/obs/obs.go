// Package obs is the runtime observability layer: cheap process-wide
// counters, gauges and fixed-bucket histograms that the protocol hot
// paths update with single atomic operations, plus snapshot/diff
// support and a text + JSON exposition format.
//
// obs complements internal/metrics, which renders *end-of-run* result
// tables for the experiment suite: metrics answers "what did the run
// conclude", obs answers "what is the process doing right now". A live
// registryd exposes the obs registry over HTTP (on -http, see
// Handler), sdctl fetches and pretty-prints it (Fetch), and the
// simdisco experiment runner prints per-phase snapshot diffs.
//
// All metrics live in a Registry; the package-level constructors
// (NewCounter, NewGauge, NewHistogram) register into Default, the
// process-wide registry every instrumented package shares. Metric
// construction is idempotent by name, so instrumented packages declare
// their metrics in package-level vars and tests may re-register freely.
// Because the registry is process-wide, simulations that run many
// registries in one process observe the *sum* of all their activity —
// exactly what the per-phase diffs in cmd/simdisco report.
//
// The hot-path cost is one atomic add per event (histograms: two adds
// and a bucket add); names are resolved once at registration, never
// per event. Metric names follow "component.event[.qualifier]" in
// lowercase, e.g. "registry.plancache.hits"; OBSERVABILITY.md
// documents every name, its unit and the component that emits it, and
// `make docs-check` keeps that list in sync with the code.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric types in snapshots and expositions.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing event count. The zero value is
// usable but unregistered; obtain registered counters via NewCounter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n events.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, live adverts). Unlike
// counters, gauges move both ways and snapshot diffs report the latest
// value rather than a delta.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the level by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Bucket bounds are inclusive
// upper limits in the metric's unit; observations above the last bound
// land in an implicit overflow bucket. Buckets are cumulative in
// snapshots (like Prometheus), non-cumulative internally.
type Histogram struct {
	bounds []int64
	counts []atomic.Uint64 // len(bounds)+1, last = overflow
	sum    atomic.Int64
	total  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// LatencyBucketsUS is the default bound set for latency histograms in
// microseconds: fine resolution around in-memory evaluation costs
// (single-digit µs) up to the second-scale federation hop deadlines.
var LatencyBucketsUS = []int64{
	1, 2, 5, 10, 25, 50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
}

// metric is one registered metric with its metadata.
type metric struct {
	name string
	kind Kind
	unit string // "count", "bytes", "us", ...
	help string

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds named metrics. Registration is idempotent by name;
// reads (Snapshot) and registrations may run concurrently with hot-path
// updates.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
}

// NewRegistry returns an empty metric registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Default is the process-wide registry all instrumented packages use.
var Default = NewRegistry()

func (r *Registry) register(name string, kind Kind, unit, help string) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, m.kind))
		}
		return m
	}
	m := &metric{name: name, kind: kind, unit: unit, help: help}
	r.metrics[name] = m
	return m
}

// NewCounter registers (or returns the existing) counter under name.
func (r *Registry) NewCounter(name, unit, help string) *Counter {
	m := r.register(name, KindCounter, unit, help)
	if m.counter == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// NewGauge registers (or returns the existing) gauge under name.
func (r *Registry) NewGauge(name, unit, help string) *Gauge {
	m := r.register(name, KindGauge, unit, help)
	if m.gauge == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// NewHistogram registers (or returns the existing) histogram under
// name with the given inclusive upper bucket bounds (ascending).
func (r *Registry) NewHistogram(name, unit, help string, bounds []int64) *Histogram {
	m := r.register(name, KindHistogram, unit, help)
	if m.hist == nil {
		cp := make([]int64, len(bounds))
		copy(cp, bounds)
		m.hist = &Histogram{bounds: cp, counts: make([]atomic.Uint64, len(cp)+1)}
	}
	return m.hist
}

// NewCounter registers a counter in the Default registry.
func NewCounter(name, unit, help string) *Counter { return Default.NewCounter(name, unit, help) }

// NewGauge registers a gauge in the Default registry.
func NewGauge(name, unit, help string) *Gauge { return Default.NewGauge(name, unit, help) }

// NewHistogram registers a histogram in the Default registry.
func NewHistogram(name, unit, help string, bounds []int64) *Histogram {
	return Default.NewHistogram(name, unit, help, bounds)
}

// names returns the registered metric names sorted.
func (r *Registry) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

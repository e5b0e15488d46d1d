// Package telemetry is the platform-wide observability layer: a
// zero-dependency metrics registry (counters, gauges, fixed-bucket
// histograms with quantile summaries) plus a span tracer driven by the
// simulated clock (span.go).
//
// Design constraints, in order:
//
//  1. Disabled must be free. Every method on every type is safe on a nil
//     receiver and returns immediately, so instrumented components hold
//     pre-resolved handles (nil when telemetry is off) and pay one nil
//     check per observation — no map lookups, no allocation.
//  2. Exact under concurrency. Counters are atomic; gauges and histograms
//     are mutex-protected, so counts and sums are exact even when a real
//     goroutine hammers a histogram while the simulation's serve loops
//     observe into it (see the -race tests).
//  3. Bounded cardinality. Metrics are keyed by name plus a small sorted
//     label set; labels carry component or operation classes, never
//     per-domain IDs (DESIGN.md §8 has the naming rules).
package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension. Values must come from a small fixed set
// (shard class, operation kind, direction) — never unbounded identifiers.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label at an instrumentation site.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricID renders name plus sorted labels into the canonical registry key,
// e.g. `restart_downtime_ms{comp=netback}`. Sorting makes the ID
// independent of the label order at the call site.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Registry owns every metric and the span tracer. The zero value is not
// usable; call New. A nil *Registry is the disabled layer: all lookups
// return nil handles whose methods no-op.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	tracer     *Tracer
}

// New returns an empty enabled registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		tracer:     NewTracer(),
	}
}

// Counter returns the counter for name+labels, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[id]
	if !ok {
		c = &Counter{}
		r.counters[id] = c
	}
	return c
}

// Gauge returns the gauge for name+labels, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[id]
	if !ok {
		g = &Gauge{}
		r.gauges[id] = g
	}
	return g
}

// Histogram returns the histogram for name+labels, creating it with the
// given bucket upper bounds on first use (later calls reuse the existing
// buckets and ignore the argument). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[id]
	if !ok {
		h = newHistogram(buckets)
		r.histograms[id] = h
	}
	return h
}

// Counter is a monotonically increasing integer. Atomic, so it stays exact
// when incremented from real goroutines alongside the simulation.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
//
//xoarlint:hot
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (no-op on nil). Driver pumps count notifies per batch through
// here, so the disabled path (nil receiver) and the enabled path must both
// stay allocation-free.
//
//xoarlint:hot
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time value that can move both ways.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set replaces the value (no-op on nil).
//
//xoarlint:hot
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// add shifts the value by d (no-op on nil).
func (g *Gauge) add(d float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v += d
	g.mu.Unlock()
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram counts observations into fixed buckets and keeps exact
// count/sum/min/max. Quantiles are estimated by linear interpolation
// inside the owning bucket, clamped to the observed [min, max].
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []uint64  // len(bounds)+1
	count  uint64
	sum    float64
	min    float64
	max    float64
}

func newHistogram(buckets []float64) *Histogram {
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{
		bounds: bounds,
		counts: make([]uint64, len(bounds)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Observe records one value (no-op on nil). Per-descriptor RTTs flow through
// here on every pump wakeup; bucket search and the exact moments are all
// in-place, so observation costs no allocation whether or not telemetry is
// enabled.
//
//xoarlint:hot
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the exact number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the exact sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// quantile estimates the q-th quantile (0 <= q <= 1). Returns 0 when the
// histogram is nil or empty.
func (h *Histogram) quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			// Interpolate within bucket i between its lower and upper
			// bound, clamped to the observed extremes.
			lo := h.min
			if i > 0 {
				lo = math.Max(lo, h.bounds[i-1])
			}
			hi := h.max
			if i < len(h.bounds) {
				hi = math.Min(hi, h.bounds[i])
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - cum) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return h.max
}

// stats returns a consistent (count, sum, min, max, p50, p95, p99) tuple
// under one lock acquisition, for snapshots.
func (h *Histogram) stats() (count uint64, sum, min, max, p50, p95, p99 float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0, 0, 0, 0, 0, 0, 0
	}
	return h.count, h.sum, h.min, h.max,
		h.quantileLocked(0.50), h.quantileLocked(0.95), h.quantileLocked(0.99)
}

// Shared bucket layouts. Keeping these in one place keeps histograms with
// the same unit comparable across components.
var (
	// LatencyMSBuckets covers 10µs .. 60s in ~1-2-5 steps, for
	// millisecond-valued latencies (build, restart, queue wait).
	LatencyMSBuckets = []float64{
		0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50,
		100, 200, 500, 1000, 2000, 5000, 10000, 30000, 60000,
	}
	// LatencyUSBuckets covers 1µs .. 1s in ~1-2-5 steps, for
	// microsecond-valued latencies (ring round-trips, XenStore ops).
	LatencyUSBuckets = []float64{
		1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
		10000, 20000, 50000, 100000, 200000, 500000, 1000000,
	}
	// DepthBuckets resolves small queue depths exactly, then coarsens.
	DepthBuckets = []float64{
		0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 24, 32, 48, 64, 96, 128,
	}
)

// Package metrics is a dependency-free observability registry for the
// tcast stack: named atomic counters, gauges, and fixed-bucket histograms
// with a lock-free update hot path and snapshot-on-read exposition.
//
// The paper's entire evaluation is a cost model — queries issued, slots
// consumed, node-poll energy — so the serving stack's metrics are the same
// numbers the figures plot. Algorithms never talk to this package
// directly: the Observer (observer.go) receives every group poll's record
// from a query.Tap, and the experiment
// harness records per-point throughput and wall-clock timings. Exposition
// (text dump, Prometheus text format, HTTP handler) lives in expose.go;
// pprof helpers in profile.go.
//
// Hot-path design: metric handles are resolved once (a mutex-guarded map
// lookup) and then updated with plain atomic operations. Histogram sums
// are float64 bits in an atomic.Uint64 updated by CAS, so concurrent
// observers never lose updates and -race stays quiet.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float64 value (last write wins).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed upper-bound buckets.
// Bucket i counts observations <= bounds[i]; one extra overflow bucket
// catches everything above the last bound. Observe is wait-free except for
// the CAS loop maintaining the float64 sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	total  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		newBits := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, newBits) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the running sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bucket is one histogram bucket in a snapshot: the cumulative count of
// observations <= UpperBound (Prometheus "le" semantics).
type Bucket struct {
	UpperBound float64 // +Inf for the overflow bucket
	Count      uint64
}

// Registry is a named collection of metrics. The zero value is not usable;
// call New. All methods are safe for concurrent use; Counter/Gauge/
// Histogram return the same handle for the same name, creating it on first
// use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	summaries  map[string]*Summary
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		summaries:  map[string]*Summary{},
	}
}

// Name renders a metric name with label pairs in Prometheus form:
// Name("polls_total", "kind", "empty") == `polls_total{kind="empty"}`.
// Labels are folded into the registry key, keeping lookup a single map
// access and exposition trivially consistent.
func Name(base string, labels ...string) string {
	if len(labels) == 0 {
		return base
	}
	if len(labels)%2 != 0 {
		panic("metrics: Name labels must be key/value pairs")
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns the counter with the given name, creating it on first
// use. Optional labels are key/value pairs folded into the name.
func (r *Registry) Counter(base string, labels ...string) *Counter {
	name := Name(base, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
func (r *Registry) Gauge(base string, labels ...string) *Gauge {
	name := Name(base, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it with
// the given bucket upper bounds on first use. The bounds of an existing
// histogram are kept; callers must agree on them.
func (r *Registry) Histogram(base string, bounds []float64, labels ...string) *Histogram {
	name := Name(base, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// MetricValue is one scalar metric in a snapshot.
type MetricValue struct {
	Name  string
	Value float64
}

// HistogramValue is one histogram in a snapshot. Buckets are cumulative.
type HistogramValue struct {
	Name    string
	Count   uint64
	Sum     float64
	Buckets []Bucket
}

// Snapshot is a point-in-time view of a registry, with every section
// sorted by name so dumps are deterministic.
type Snapshot struct {
	Counters   []MetricValue
	Gauges     []MetricValue
	Histograms []HistogramValue
	Summaries  []SummaryValue
}

// Snapshot captures the registry. Individual metric reads are atomic;
// the snapshot as a whole is not a consistent cut across metrics, which is
// fine for monitoring.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for name, c := range r.counters {
		s.Counters = append(s.Counters, MetricValue{Name: name, Value: float64(c.Value())})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, MetricValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.histograms {
		hv := HistogramValue{Name: name, Count: h.Count(), Sum: h.Sum()}
		cum := uint64(0)
		for i := range h.counts {
			cum += h.counts[i].Load()
			ub := math.Inf(1)
			if i < len(h.bounds) {
				ub = h.bounds[i]
			}
			hv.Buckets = append(hv.Buckets, Bucket{UpperBound: ub, Count: cum})
		}
		s.Histograms = append(s.Histograms, hv)
	}
	for name, sm := range r.summaries {
		sv := sm.Snapshot()
		sv.Name = name
		s.Summaries = append(s.Summaries, sv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	sort.Slice(s.Summaries, func(i, j int) bool { return s.Summaries[i].Name < s.Summaries[j].Name })
	return s
}

// ExponentialBuckets returns n upper bounds starting at start and growing
// by factor: the standard shape for poll counts, bin sizes and latencies.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("metrics: ExponentialBuckets needs start > 0, factor > 1, n > 0")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

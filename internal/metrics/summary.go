package metrics

import (
	"sync"

	"tcast/internal/sketch"
)

// summaryQuantiles are the quantile points a Summary exposes on dumps —
// the conventional p50/p90/p99 monitoring set.
var summaryQuantiles = []float64{0.5, 0.9, 0.99}

// Summary is a sketch-backed quantile metric: a mergeable relative-error
// quantile sketch (constant memory in the observation count) paired with
// exact streaming moments for count/sum/min/max. Unlike Histogram, a
// Summary needs no pre-chosen bucket bounds — it tracks any value range
// at a fixed relative accuracy — and two summaries over the same
// observations always expose identical quantile estimates regardless of
// observation order.
//
// Observe takes a mutex (the sketch's bucket map is not lock-free), so
// summaries belong on per-session/per-trial paths, not per-poll hot
// loops; the obs plane observes one value per session verdict.
type Summary struct {
	mu  sync.Mutex
	q   *sketch.Quantile
	mom sketch.Moments
}

func newSummary(alpha float64) *Summary {
	return &Summary{q: sketch.NewQuantile(alpha)}
}

// Observe records one sample.
func (s *Summary) Observe(v float64) {
	s.mu.Lock()
	s.q.Observe(v)
	s.mom.Observe(v)
	s.mu.Unlock()
}

// Snapshot captures the summary (Name left empty): count and moments
// always, and the p50/p90/p99 quantile points, in that order, once
// anything was observed.
func (s *Summary) Snapshot() SummaryValue {
	s.mu.Lock()
	defer s.mu.Unlock()
	sv := SummaryValue{
		Count: s.q.Count(),
		Sum:   s.mom.Sum,
		Min:   s.mom.Min,
		Max:   s.mom.Max,
	}
	if sv.Count > 0 {
		sv.Quantiles = make([]QuantilePoint, len(summaryQuantiles))
		for i, p := range summaryQuantiles {
			sv.Quantiles[i] = QuantilePoint{Q: p, Value: s.q.Value(p)}
		}
	}
	return sv
}

// QuantilePoint is one estimated quantile in a summary snapshot.
type QuantilePoint struct {
	Q     float64 `json:"q"`
	Value float64 `json:"value"`
}

// SummaryValue is one summary in a snapshot.
type SummaryValue struct {
	Name      string          `json:"name"`
	Count     uint64          `json:"count"`
	Sum       float64         `json:"sum"`
	Min       float64         `json:"min"`
	Max       float64         `json:"max"`
	Quantiles []QuantilePoint `json:"quantiles,omitempty"`
}

// Summary returns the summary with the given name, creating it at the
// sketch's default relative accuracy on first use.
func (r *Registry) Summary(base string, labels ...string) *Summary {
	name := Name(base, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.summaries[name]
	if !ok {
		s = newSummary(sketch.DefaultAlpha)
		r.summaries[name] = s
	}
	return s
}

package obs

import (
	"fmt"
	"strings"
	"sync"

	"tcast/internal/metrics"
	"tcast/internal/sketch"
)

// Metric names for the sketch sink's registry summaries and the SSE drop
// counter.
const (
	// MetricEventsDropped counts events dropped toward slow /events
	// clients — silent loss made visible, summed over all clients.
	MetricEventsDropped = "obs_events_dropped_total"
	// MetricSessionPolls / MetricSessionSlots are the sketch-backed
	// session-cost summaries (quantiles on /metrics dumps).
	MetricSessionPolls = "obs_session_polls"
	MetricSessionSlots = "obs_session_slots"
)

// sketchExemplars is the exemplar reservoir capacity: enough to name the
// heaviest sessions without the /slo payload growing with the run.
const sketchExemplars = 8

// SketchSink folds the live verdict stream into constant-memory
// summaries: sketch-backed registry summaries of per-session poll and
// slot costs (quantiles plus exact moments), and a deterministic
// slot-weighted reservoir of exemplar sessions. Where the SLO engine
// answers "is the run healthy", the sketch sink answers "what does the
// cost distribution look like" — at any N, for any run length, in a few
// kilobytes.
//
// The sink consumes no randomness (reservoir priorities are hashes of
// the session identity), so enabling it cannot perturb a run.
type SketchSink struct {
	// mu spans both summaries and the reservoir, so a Snapshot is one
	// consistent cut of the stream.
	mu           sync.Mutex
	polls, slots *metrics.Summary
	exemplars    *sketch.Reservoir
}

// NewSketchSink returns an empty sink whose summaries are reg's
// obs_session_polls/obs_session_slots; a nil reg keeps them in a private
// registry.
func NewSketchSink(reg *metrics.Registry) *SketchSink {
	if reg == nil {
		reg = metrics.New()
	}
	return &SketchSink{
		polls:     reg.Summary(MetricSessionPolls),
		slots:     reg.Summary(MetricSessionSlots),
		exemplars: sketch.NewReservoir(sketchExemplars),
	}
}

// OnEvent implements Sink: only session verdicts are summarized.
func (s *SketchSink) OnEvent(e Event) {
	if e.Kind != KindSessionVerdict {
		return
	}
	slots := float64(e.Slots)
	key := sketch.HashString(e.Session)
	if e.Trial >= 0 {
		key = sketch.Hash64(key ^ uint64(e.Trial))
	}
	s.mu.Lock()
	s.polls.Observe(float64(e.Polls))
	s.slots.Observe(slots)
	s.exemplars.Offer(sketch.Exemplar{
		Key:    key,
		Weight: slots + 1, // +1 keeps zero-slot sessions sampleable
		Value:  slots,
		Label:  e.Session,
	})
	s.mu.Unlock()
}

// QuantileReport is one cost dimension's summary in a SketchReport.
type QuantileReport struct {
	Min float64 `json:"min"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
	Sum float64 `json:"sum"`
}

// ExemplarReport is one retained exemplar session in a SketchReport.
type ExemplarReport struct {
	Session string  `json:"session"`
	Slots   float64 `json:"slots"`
}

// SketchReport is the sink's snapshot on the /slo payload.
type SketchReport struct {
	Sessions  uint64           `json:"sessions"`
	Polls     QuantileReport   `json:"polls"`
	Slots     QuantileReport   `json:"slots"`
	Exemplars []ExemplarReport `json:"exemplars,omitempty"`
}

// quantileReport reads one summary's snapshot; its quantile points are
// p50, p90, p99 in that order.
func quantileReport(sv metrics.SummaryValue) QuantileReport {
	if sv.Count == 0 {
		return QuantileReport{}
	}
	return QuantileReport{
		Min: sv.Min, P50: sv.Quantiles[0].Value, P90: sv.Quantiles[1].Value,
		P99: sv.Quantiles[2].Value, Max: sv.Max, Sum: sv.Sum,
	}
}

// Snapshot captures the sink's current summaries.
func (s *SketchSink) Snapshot() SketchReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	polls := s.polls.Snapshot()
	rep := SketchReport{
		Sessions: polls.Count,
		Polls:    quantileReport(polls),
		Slots:    quantileReport(s.slots.Snapshot()),
	}
	for _, ex := range s.exemplars.Exemplars() {
		rep.Exemplars = append(rep.Exemplars, ExemplarReport{Session: ex.Label, Slots: ex.Value})
	}
	return rep
}

// Summary renders the snapshot for the plane's exit report.
func (s *SketchSink) Summary() string {
	rep := s.Snapshot()
	if rep.Sessions == 0 {
		return "sketch: no sessions observed\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sketch: %d sessions; polls p50=%.3g p90=%.3g p99=%.3g max=%.3g; slots p50=%.3g p90=%.3g p99=%.3g max=%.3g\n",
		rep.Sessions,
		rep.Polls.P50, rep.Polls.P90, rep.Polls.P99, rep.Polls.Max,
		rep.Slots.P50, rep.Slots.P90, rep.Slots.P99, rep.Slots.Max)
	for _, ex := range rep.Exemplars {
		fmt.Fprintf(&b, "  exemplar %s slots=%g\n", ex.Session, ex.Slots)
	}
	return b.String()
}

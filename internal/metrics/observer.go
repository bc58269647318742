package metrics

import (
	"tcast/internal/query"
)

// Default bucket shapes for the poll instruments. Poll counts and bin
// sizes are power-of-two up to well beyond the paper's n=128 scale;
// the 2t-bins worst case at n=128, t=16 stays under 128 polls.
var (
	// SessionBuckets bounds per-session totals (polls, slots, nodes).
	SessionBuckets = ExponentialBuckets(1, 2, 14) // 1 .. 8192
	// BinSizeBuckets bounds per-poll group sizes.
	BinSizeBuckets = ExponentialBuckets(1, 2, 11) // 1 .. 1024
	// TimeBuckets bounds wall-clock durations in seconds, 100 µs .. ~53 min.
	TimeBuckets = ExponentialBuckets(1e-4, 2, 25)
)

// Metric names recorded by Observer, in the paper's cost-model
// vocabulary: a poll is one group query (the paper's query/slot cost unit),
// and a node-poll pair is one participant kept listening for one poll (the
// paper's listener-energy proxy).
const (
	// MetricPolls counts group polls, partitioned by response kind via a
	// kind="..." label. The per-kind counters always sum to the total
	// poll count because the kind partition is query.KindCounts.
	MetricPolls = "tcast_polls_total"
	// MetricNodesPolled counts node-poll pairs (sum of bin sizes).
	MetricNodesPolled = "tcast_nodes_polled_total"
	// MetricSessions counts completed query sessions (Finish calls).
	MetricSessions = "tcast_sessions_total"
	// MetricBinSize is the per-poll group size distribution.
	MetricBinSize = "tcast_bin_size"
	// MetricSessionPolls is the per-session poll/slot total distribution
	// (one RCD slot per group poll).
	MetricSessionPolls = "tcast_session_polls"
	// MetricSessionNodes is the per-session node-poll (energy) total
	// distribution.
	MetricSessionNodes = "tcast_session_nodes_polled"
)

// Observer is the metrics layer, a query.Observer that records every
// group poll into a Registry: per-poll response kinds and bin sizes as
// they happen, and per-session query/slot/energy totals when Finish is
// called. It works on any substrate — fastsim channel, packet radio, or
// emulated mote — because it only sees poll records.
//
// Metric handles are resolved at construction; the per-poll path is pure
// atomic updates and safe to use from concurrently running sessions (each
// session holds its own Observer).
type Observer struct {
	polls [query.NumKinds]*Counter
	nodes *Counter

	binSize      *Histogram
	sessionPolls *Histogram
	sessionNodes *Histogram
	sessions     *Counter

	kinds     query.KindCounts
	sessNodes int
}

// NewObserver returns an observer recording into m, which must be
// non-nil (Wrap is the nil-safe path).
func NewObserver(m *Registry) *Observer {
	o := &Observer{
		nodes:        m.Counter(MetricNodesPolled),
		sessions:     m.Counter(MetricSessions),
		binSize:      m.Histogram(MetricBinSize, BinSizeBuckets),
		sessionPolls: m.Histogram(MetricSessionPolls, SessionBuckets),
		sessionNodes: m.Histogram(MetricSessionNodes, SessionBuckets),
	}
	for k := query.Kind(0); int(k) < query.NumKinds; k++ {
		o.polls[k] = m.Counter(MetricPolls, "kind", k.String())
	}
	return o
}

// Wrap returns q behind a tap carrying an Observer on m, or q unchanged
// when m is nil, so uninstrumented runs pay nothing.
func Wrap(q query.Querier, m *Registry) query.Querier {
	if m == nil {
		return q
	}
	return query.NewTap(q, NewObserver(m))
}

// ObservePoll implements query.Observer.
func (o *Observer) ObservePoll(p *query.Poll) { o.Record(p.Response.Kind, len(p.Bin)) }

// ObserveRound implements query.Observer; rounds carry no metrics.
func (o *Observer) ObserveRound(int) {}

// Record tallies one poll outcome — the body of ObservePoll, also fed
// directly by a substrate that does not expose its querier (the emulated
// mote testbed replays its poll record).
func (o *Observer) Record(kind query.Kind, binSize int) {
	o.polls[kind].Inc()
	o.nodes.Add(int64(binSize))
	o.binSize.Observe(float64(binSize))
	o.kinds.Observe(kind)
	o.sessNodes += binSize
}

// Session returns the kind partition and node-poll total of the polls seen
// since construction (or the last Finish).
func (o *Observer) Session() (query.KindCounts, int) {
	return o.kinds, o.sessNodes
}

// Finish records the session's totals — polls (= RCD slots) and node-poll
// pairs (the listener-energy proxy) — into the session histograms and
// resets the session tallies so the observer can be reused.
func (o *Observer) Finish() {
	o.sessions.Inc()
	o.sessionPolls.Observe(float64(o.kinds.Total()))
	o.sessionNodes.Observe(float64(o.sessNodes))
	o.kinds = query.KindCounts{}
	o.sessNodes = 0
}

// FinishSession ends the session on the first Observer found in q's
// chain and is a no-op when there is none — the counterpart of Wrap.
func FinishSession(q query.Querier) {
	if o, ok := query.Find[*Observer](q); ok {
		o.Finish()
	}
}

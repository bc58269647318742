package trace_test

import (
	"testing"

	"tcast/internal/core"
	"tcast/internal/fastsim"
	"tcast/internal/metrics"
	"tcast/internal/query"
	"tcast/internal/rng"
	"tcast/internal/trace"
)

// stackOrder builds the metrics and span observers over ch — on stacked
// taps with the span tap outside or inside, or on one shared tap — and
// runs a 2tBins session through them, returning the core result, the
// metrics registry, and the finished span trace.
func stackOrder(t *testing.T, arrangement string, seed uint64) (core.Result, *metrics.Registry, *trace.Trace) {
	t.Helper()
	r := rng.New(seed)
	ch, _ := fastsim.RandomPositives(64, 12, fastsim.DefaultConfig(), r.Split(1))
	reg := metrics.New()
	b := trace.NewBuilder()
	sr := trace.NewSpanRecorder(b)

	var q query.Querier
	switch arrangement {
	case "span outside":
		q = query.NewTap(metrics.Wrap(ch, reg), sr)
	case "span inside":
		q = metrics.Wrap(query.NewTap(ch, sr), reg)
	case "one tap":
		q = query.NewTap(ch, metrics.NewObserver(reg), sr)
	default:
		t.Fatalf("unknown arrangement %q", arrangement)
	}
	sr.StartSession("2tBins")

	res, err := (core.TwoTBins{}).Run(q, 64, 8, r.Split(2))
	if err != nil {
		t.Fatal(err)
	}
	sr.EndSession(trace.IntAttr("queries", res.Queries))
	metrics.FinishSession(q)
	return res, reg, b.Trace()
}

// TestStackedMiddlewareOrderIndependent is the regression test for the
// composition contract: the metrics observer and the span recorder must
// produce identical numbers — and never double-count — regardless of which
// tap sits outside the other or whether they share one, and FinishSession
// must find the metrics observer through the span recorder's tap.
func TestStackedMiddlewareOrderIndependent(t *testing.T) {
	const seed = 41

	// Reference run with no observers at all.
	r := rng.New(seed)
	ch, _ := fastsim.RandomPositives(64, 12, fastsim.DefaultConfig(), r.Split(1))
	bare, err := (core.TwoTBins{}).Run(ch, 64, 8, r.Split(2))
	if err != nil {
		t.Fatal(err)
	}

	arrangements := []string{"span outside", "span inside", "one tap"}
	traces := make([]*trace.Trace, len(arrangements))
	for i, name := range arrangements {
		res, reg, tr := stackOrder(t, name, seed)
		traces[i] = tr

		// No arrangement perturbs the algorithm.
		if res != bare {
			t.Fatalf("%s: result %+v diverges from bare %+v", name, res, bare)
		}

		// Metrics agree with the session: exactly one session, exactly
		// res.Queries polls — counted once, not once per tap.
		var polls int64
		for k := query.Kind(0); int(k) < query.NumKinds; k++ {
			polls += reg.Counter(metrics.MetricPolls, "kind", k.String()).Value()
		}
		if polls != int64(bare.Queries) {
			t.Errorf("%s: metrics polls = %d, want %d", name, polls, bare.Queries)
		}
		if got := reg.Counter(metrics.MetricSessions).Value(); got != 1 {
			t.Errorf("%s: sessions = %d, want 1 (FinishSession must reach the metrics observer)", name, got)
		}
		h := reg.Histogram(metrics.MetricSessionPolls, metrics.SessionBuckets)
		if h.Count() != 1 || h.Sum() != float64(bare.Queries) {
			t.Errorf("%s: session polls histogram count=%d sum=%v, want 1/%d", name, h.Count(), h.Sum(), bare.Queries)
		}

		// The span recorder likewise records each poll exactly once.
		if a := trace.Analyze(tr); a.Polls != bare.Queries {
			t.Errorf("%s: trace polls = %d, want %d", name, a.Polls, bare.Queries)
		}
	}

	// The traces are bit-identical across arrangements.
	for i := 1; i < len(traces); i++ {
		if d := trace.Diff(traces[0], traces[i]); !d.Identical {
			t.Errorf("traces differ between %s and %s: %s", arrangements[0], arrangements[i], d)
		}
	}
}

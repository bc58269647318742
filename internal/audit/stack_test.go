package audit_test

import (
	"fmt"
	"reflect"
	"testing"

	"tcast/internal/audit"
	"tcast/internal/core"
	"tcast/internal/fastsim"
	"tcast/internal/metrics"
	"tcast/internal/query"
	"tcast/internal/rng"
	"tcast/internal/trace"
)

// buildOrder assembles the three observers over a fresh lossless fastsim
// channel in the given inner-to-outer order ('M' metrics, 'A' audit, 'S'
// span recorder) and runs one 2tBins session through them. With oneTap
// the observers share one tap, fanning out in that order; otherwise each
// sits on a tap of its own, stacked in that order.
func buildOrder(t *testing.T, order string, oneTap bool, seed uint64) (core.Result, *metrics.Registry, *trace.Trace, audit.Verdict) {
	t.Helper()
	r := rng.New(seed)
	ch, _ := fastsim.RandomPositives(64, 12, fastsim.DefaultConfig(), r.Split(1))
	reg := metrics.New()
	b := trace.NewBuilder()
	cfg := audit.Config{N: 64, T: 8, Metrics: reg}

	// The recorder annotates its session with the auditor's verdict, so it
	// is re-targeted once the auditor exists, whichever comes first.
	sr := trace.NewSpanRecorder(b)
	var aud *audit.Auditor
	var q query.Querier = ch
	var observers []query.Observer
	for _, layer := range order {
		switch layer {
		case 'M':
			if oneTap {
				observers = append(observers, metrics.NewObserver(reg))
			} else {
				q = metrics.Wrap(q, reg)
			}
		case 'A':
			if oneTap {
				aud = new(audit.Auditor)
				if err := aud.Reset(ch, cfg); err != nil {
					t.Fatal(err)
				}
				observers = append(observers, aud)
			} else {
				var err error
				if aud, err = audit.New(q, cfg); err != nil {
					t.Fatal(err)
				}
				q = aud
			}
		case 'S':
			if oneTap {
				observers = append(observers, sr)
			} else {
				q = query.NewTap(q, sr)
			}
		}
	}
	if oneTap {
		q = query.NewTap(ch, observers...)
	}
	sr.Reset(b, aud)

	sr.StartSession("2tBins")
	res, err := (core.TwoTBins{}).Run(q, 64, 8, r.Split(2))
	if err != nil {
		t.Fatal(err)
	}
	v := aud.Finish(res.Decision)
	sr.EndSession(trace.IntAttr("queries", res.Queries))
	metrics.FinishSession(q)
	return res, reg, b.Trace(), v
}

// TestThreeLayerStackOrderIndependent extends the two-layer composition
// contract to the full observer set: metrics, audit, and span recording
// must each see every poll exactly once, agree on the session's numbers,
// and leave the algorithm's result bit-identical to a bare run — in all
// six orders, whether the observers share one tap or each has its own.
func TestThreeLayerStackOrderIndependent(t *testing.T) {
	const seed = 43

	// Reference run with no observers at all.
	r := rng.New(seed)
	ch, _ := fastsim.RandomPositives(64, 12, fastsim.DefaultConfig(), r.Split(1))
	bare, err := (core.TwoTBins{}).Run(ch, 64, 8, r.Split(2))
	if err != nil {
		t.Fatal(err)
	}

	var firstVerdict audit.Verdict
	var firstTrace *trace.Trace
	first := ""
	for _, oneTap := range []bool{false, true} {
		for _, order := range []string{"MAS", "MSA", "AMS", "ASM", "SMA", "SAM"} {
			name := fmt.Sprintf("%s/oneTap=%v", order, oneTap)
			res, reg, tr, v := buildOrder(t, order, oneTap, seed)

			if res != bare {
				t.Errorf("%s: result %+v diverges from bare %+v", name, res, bare)
			}

			// Metrics count each poll and session exactly once.
			var polls int64
			for k := query.Kind(0); int(k) < query.NumKinds; k++ {
				polls += reg.Counter(metrics.MetricPolls, "kind", k.String()).Value()
			}
			if polls != int64(bare.Queries) {
				t.Errorf("%s: metrics polls = %d, want %d", name, polls, bare.Queries)
			}
			if got := reg.Counter(metrics.MetricSessions).Value(); got != 1 {
				t.Errorf("%s: sessions = %d, want 1", name, got)
			}

			// The audit class partition covers the same polls exactly once.
			var classSum int64
			for c := audit.Class(0); int(c) < audit.NumClasses; c++ {
				classSum += reg.Counter(audit.MetricAuditPolls, "class", c.String()).Value()
			}
			if classSum != int64(bare.Queries) {
				t.Errorf("%s: audit class counters sum to %d, want %d", name, classSum, bare.Queries)
			}

			// The span recorder records each poll exactly once.
			if a := trace.Analyze(tr); a.Polls != bare.Queries {
				t.Errorf("%s: trace polls = %d, want %d", name, a.Polls, bare.Queries)
			}

			// The verdict: lossless substrate, sound algorithm.
			if v.Outcome != audit.OutcomeCorrect || v.Polls != bare.Queries || len(v.Violations) != 0 {
				t.Errorf("%s: verdict = %+v, want correct/%d polls/no violations", name, v, bare.Queries)
			}

			// The session span carries the audit attributes in every order:
			// the recorder's annotators are named, not found by position.
			found := false
			for _, root := range tr.Roots {
				root.Walk(func(_ int, sp *trace.Span) {
					if _, ok := sp.Attr("audit_outcome"); ok {
						found = true
					}
				})
			}
			if !found {
				t.Errorf("%s: session span lacks the audit attributes", name)
			}

			// Verdicts and traces are identical across every arrangement.
			if first == "" {
				first, firstVerdict, firstTrace = name, v, tr
				continue
			}
			if v.TrueX != firstVerdict.TrueX || v.Classes != firstVerdict.Classes ||
				v.Initiator != firstVerdict.Initiator || !reflect.DeepEqual(v.Nodes, firstVerdict.Nodes) {
				t.Errorf("%s: verdict differs from %s's:\n%+v\nvs\n%+v", name, first, v, firstVerdict)
			}
			if d := trace.Diff(firstTrace, tr); !d.Identical {
				t.Errorf("%s: trace differs from %s's: %s", name, first, d)
			}
		}
	}
}

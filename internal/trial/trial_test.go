package trial

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tcast/internal/audit"
	"tcast/internal/core"
	"tcast/internal/fastsim"
	"tcast/internal/faults"
	"tcast/internal/metrics"
	"tcast/internal/obs"
	"tcast/internal/query"
	"tcast/internal/rng"
	"tcast/internal/trace"
)

// marker is a transparent hook layer, so the chain search can find it.
type marker struct{ q query.Querier }

func (m *marker) Query(bin []int) query.Response { return m.q.Query(bin) }
func (m *marker) Traits() query.Traits           { return m.q.Traits() }
func (m *marker) Unwrap() query.Querier          { return m.q }

// TestLayerOrder pins the stack a fully configured trial assembles,
// outermost first, and the fan-out order of the observers on its one tap.
func TestLayerOrder(t *testing.T) {
	fcfg := faults.Config{SkewProb: 0.01}
	stack := &Stack{
		Faults:  &fcfg,
		Retry:   query.RetryPolicy{MaxRetries: 1},
		Metrics: metrics.New(),
		Audit:   &audit.Collector{},
		Trace:   trace.NewBuilder(),
		Obs:     obs.NewBus(),
	}
	var st State
	r := rng.New(1)
	sess, err := stack.Open(&st, st.Channel(64, 8, fastsim.DefaultConfig(), r), core.TwoTBins{}, r, Trial{
		N: 64, T: 8, X: 8, Stream: 2,
		Hook: func(q query.Querier) query.Querier { return &marker{q} },
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	query.Walk(sess.Q, func(q query.Querier) bool {
		got = append(got, fmt.Sprintf("%T", q))
		return true
	})
	want := []string{
		"*query.Tap", "*query.Retry", "*trial.marker",
		"*faults.Injector", "*fastsim.Channel",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("chain %v, want %v", got, want)
	}
	got = got[:0]
	for _, o := range sess.Q.(*query.Tap).Observers() {
		got = append(got, fmt.Sprintf("%T", o))
	}
	want = []string{"*metrics.Observer", "*audit.Auditor", "*trace.SpanRecorder", "*obs.Publisher"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("observers %v, want %v", got, want)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	sess.Publish()
	stack.Trace.Graft()
	if !sess.Audited || stack.Trace.Trace().NumSpans() == 0 {
		t.Fatalf("audited=%v, %d spans", sess.Audited, stack.Trace.Trace().NumSpans())
	}
}

// TestOracleBinding: a resolved oracle reads its ground truth from the
// trial's substrate, and refuses a substrate without one.
func TestOracleBinding(t *testing.T) {
	alg, err := Algorithm("oracle")
	if err != nil {
		t.Fatal(err)
	}
	var st State
	r := rng.New(3)
	sess, err := (&Stack{}).Run(&st, st.Channel(128, 20, fastsim.DefaultConfig(), r), alg, r, Trial{N: 128, T: 16, X: 20, Stream: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sess.Result.Decision {
		t.Fatal("oracle decided x=20 < t=16")
	}
	if _, err := (&Stack{}).Open(&st, &marker{&st.ch}, alg, r, Trial{N: 128, T: 16}); err == nil {
		t.Fatal("oracle bound to a substrate without ground truth")
	}
}

// TestBareTrialAllocationFree: with no layers configured and a reused
// State, a trial allocates nothing.
func TestBareTrialAllocationFree(t *testing.T) {
	bare := &Stack{}
	var st State
	root := rng.New(5)
	var r rng.Source
	i := 0
	run := func() {
		root.SplitInto(uint64(i), &r)
		if _, err := bare.Run(&st, st.Channel(128, 16, fastsim.DefaultConfig(), &r), core.TwoTBins{}, &r, Trial{Index: i, N: 128, T: 16, X: 16, Stream: 2}); err != nil {
			t.Fatal(err)
		}
		i++
	}
	run() // size the state's buffers
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Fatalf("bare trial allocates %v times", n)
	}
}

// TraceRound forwards the round hook, as a perfbench timing splice does,
// so a marker between two taps passes rounds on to the lower one.
func (m *marker) TraceRound(round int) {
	if rt, ok := m.q.(interface{ TraceRound(int) }); ok {
		rt.TraceRound(round)
	}
}

// stackedRun is one trial assembled the perfbench way: a single-observer
// tap per layer from the public constructors, with a marker splice
// between every pair, closed out by hand in trial.Run/Publish's order.
func stackedRun(t *testing.T, s *Stack, r *rng.Source, tr Trial, cfg fastsim.Config) core.Result {
	t.Helper()
	ch, _ := fastsim.RandomPositives(tr.N, tr.X, cfg, r.Split(1))
	var q query.Querier = &marker{ch}
	var inj *faults.Injector
	if s.Faults != nil {
		inj = faults.New(q, *s.Faults, tr.N, r.Split(FaultStream))
		q = &marker{inj}
	}
	q = query.WithRetry(q, s.Retry)
	rq, _ := q.(*query.Retry)
	q = &marker{metrics.Wrap(&marker{q}, s.Metrics)}
	aud, err := audit.New(q, audit.Config{N: tr.N, T: tr.T, Metrics: s.Metrics})
	if err != nil {
		t.Fatal(err)
	}
	fb := s.Trace.Fork(tr.Index)
	fb.Begin(trace.KindTrial, "trial "+strconv.Itoa(tr.Index))
	ann := []trace.Annotator{aud, ch}
	if inj != nil {
		ann = []trace.Annotator{aud, inj, ch}
	}
	spans := trace.NewSpanRecorder(fb, ann...)
	spans.SetSampling(s.TraceSample, uint64(tr.Index))
	alg := core.TwoTBins{}
	spans.StartSession(alg.Name(), trace.IntAttr("n", tr.N), trace.IntAttr("t", tr.T), trace.IntAttr("x", tr.X))
	q = &marker{query.NewTap(&marker{aud}, spans)}
	obs.PublishSessionStart(s.Obs, tr.Label, tr.Index)
	q = &marker{obs.NewPublisher(q, s.Obs, tr.Label, tr.Index)}

	res, err := alg.Run(q, tr.N, tr.T, r.Split(tr.Stream))
	if err != nil {
		t.Fatal(err)
	}
	v := aud.Finish(res.Decision)
	spans.EndSession(trace.BoolAttr("decision", res.Decision),
		trace.IntAttr("queries", res.Queries), trace.IntAttr("rounds", res.Rounds))
	fb.End()
	metrics.FinishSession(q)
	s.Audit.AddAt(tr.Index, tr.Label, v)
	obs.PublishChainEvents(s.Obs, tr.Label, tr.Index, rq, inj)
	obs.PublishVerdict(s.Obs, tr.Label, tr.Index, v, obs.ChainSlots(q, v.Polls), obs.DescribeCause(rq, inj, v.CausalPoll))
	return res
}

// observed is everything one side of TestOneTapMatchesStackedTaps
// records.
type observed struct {
	results []core.Result
	metrics string
	audit   string
	trace   []byte
	events  []obs.Event
}

// TestOneTapMatchesStackedTaps: a trial's one tap fanning out to every
// observer records exactly what a chain of single-observer taps does —
// the perfbench replay's shape — with the same results, metrics dump,
// audit summary, trace bytes and bus events. Every poll is counted once
// per observer, and the observers leave the algorithm's results equal to
// an unobserved run's.
func TestOneTapMatchesStackedTaps(t *testing.T) {
	fcfg, err := faults.ParseSpec("burst=8,frac=0.2,churn=0.01,skew=0.01")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		faults *faults.Config
		retry  query.RetryPolicy
		sample int
	}{
		{"lossless", nil, query.RetryPolicy{}, 1},
		{"faulted", &fcfg, query.RetryPolicy{MaxRetries: 2, Backoff: 1}, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			const trials, n, th = 40, 128, 16
			cfg := fastsim.DefaultConfig()
			run := func(oneTap bool) observed {
				var events []obs.Event
				bus := obs.NewBus()
				bus.Subscribe(obs.SinkFunc(func(e obs.Event) { events = append(events, e) }))
				s := &Stack{Faults: c.faults, Retry: c.retry, Metrics: metrics.New(), Audit: &audit.Collector{},
					Trace: trace.NewBuilder(), TraceSample: c.sample, Obs: bus}
				bare := &Stack{Faults: c.faults, Retry: c.retry}
				var out observed
				var st State
				root := rng.New(11)
				for i := 0; i < trials; i++ {
					tr := Trial{Index: i, Label: fmt.Sprintf("trial=%d", i), N: n, T: th, X: 8 + i%16, Stream: 2}
					var r rng.Source
					root.SplitInto(uint64(i), &r)
					if !oneTap {
						out.results = append(out.results, stackedRun(t, s, &r, tr, cfg))
						continue
					}
					ss, err := s.Run(&st, st.Channel(n, tr.X, cfg, &r), core.TwoTBins{}, &r, tr)
					if err != nil {
						t.Fatal(err)
					}
					out.results = append(out.results, ss.Result)
					root.SplitInto(uint64(i), &r)
					ref, err := bare.Run(&st, st.Channel(n, tr.X, cfg, &r), core.TwoTBins{}, &r, tr)
					if err != nil {
						t.Fatal(err)
					}
					if ref.Result != out.results[i] {
						t.Fatalf("trial %d: observed %+v, unobserved %+v", i, out.results[i], ref.Result)
					}
				}
				var b strings.Builder
				if err := metrics.WriteText(&b, s.Metrics.Snapshot()); err != nil {
					t.Fatal(err)
				}
				out.metrics = b.String()
				s.Audit.Flush()
				out.audit = s.Audit.Summary()
				s.Trace.Graft()
				if out.trace, err = trace.EncodeBytes(s.Trace.Trace()); err != nil {
					t.Fatal(err)
				}
				out.events = events

				// Each observer counted every poll and session once.
				polls := 0
				for _, res := range out.results {
					polls += res.Queries
				}
				var kinds, classes int64
				for k := query.Kind(0); int(k) < query.NumKinds; k++ {
					kinds += s.Metrics.Counter(metrics.MetricPolls, "kind", k.String()).Value()
				}
				for cl := audit.Class(0); int(cl) < audit.NumClasses; cl++ {
					classes += s.Metrics.Counter(audit.MetricAuditPolls, "class", cl.String()).Value()
				}
				if kinds != int64(polls) || classes != int64(polls) {
					t.Fatalf("kind counters %d, class counters %d, want %d polls", kinds, classes, polls)
				}
				if got := s.Metrics.Counter(metrics.MetricSessions).Value(); got != trials {
					t.Fatalf("metrics sessions = %d, want %d", got, trials)
				}
				if st := s.Audit.Stats(); st.Sessions != trials || st.Polls != polls {
					t.Fatalf("audit saw %d sessions, %d polls; want %d, %d", st.Sessions, st.Polls, trials, polls)
				}
				sessions := 0
				for _, root := range s.Trace.Trace().Roots {
					root.Walk(func(_ int, sp *trace.Span) {
						if sp.Kind != trace.KindSession {
							return
						}
						sessions++
						if v, _ := sp.Attr("polls"); v != strconv.Itoa(out.results[sessions-1].Queries) {
							t.Fatalf("session %d polls attr %q, want %d", sessions-1, v, out.results[sessions-1].Queries)
						}
						if _, ok := sp.Attr("audit_outcome"); !ok {
							t.Fatalf("session %d span lacks the audit verdict", sessions-1)
						}
					})
				}
				if sessions != trials {
					t.Fatalf("%d session spans, want %d", sessions, trials)
				}
				return out
			}
			one, stacked := run(true), run(false)
			for i := range one.results {
				if one.results[i] != stacked.results[i] {
					t.Fatalf("trial %d: one tap %+v, stacked taps %+v", i, one.results[i], stacked.results[i])
				}
			}
			if one.metrics != stacked.metrics {
				t.Errorf("metrics dumps differ:\n%s\nvs\n%s", one.metrics, stacked.metrics)
			}
			if one.audit != stacked.audit {
				t.Errorf("audit summaries differ:\n%s\nvs\n%s", one.audit, stacked.audit)
			}
			if !bytes.Equal(one.trace, stacked.trace) {
				t.Errorf("trace bytes differ")
			}
			if !reflect.DeepEqual(one.events, stacked.events) {
				t.Errorf("bus events differ: %d vs %d events", len(one.events), len(stacked.events))
			}
		})
	}
}

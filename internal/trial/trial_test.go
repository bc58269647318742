package trial

import (
	"fmt"
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

// marker is a transparent hook layer, so the chain walk can find it.
type marker struct{ q query.Querier }

func (m *marker) Query(bin []int) query.Response { return m.q.Query(bin) }
func (m *marker) Traits() query.Traits           { return m.q.Traits() }
func (m *marker) Unwrap() query.Querier          { return m.q }

// TestLayerOrder pins the stack a fully configured trial assembles,
// outermost first.
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
	for q := sess.Q; q != nil; {
		got = append(got, fmt.Sprintf("%T", q))
		w, ok := q.(query.Wrapper)
		if !ok {
			break
		}
		q = w.Unwrap()
	}
	want := []string{
		"*obs.Publisher", "*trace.SpanQuerier", "*audit.Auditor",
		"*metrics.InstrumentedQuerier", "*query.Retry", "*trial.marker",
		"*faults.Injector", "*fastsim.Channel",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("chain %v, want %v", got, want)
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

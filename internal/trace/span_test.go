package trace_test

import (
	"strings"
	"testing"

	"tcast/internal/core"
	"tcast/internal/fastsim"
	"tcast/internal/pollcast"
	"tcast/internal/query"
	"tcast/internal/radio"
	"tcast/internal/rng"
	"tcast/internal/trace"
)

func TestBuilderHierarchy(t *testing.T) {
	b := trace.NewBuilder()
	b.SetMeta(trace.StringAttr("cmd", "test"))
	exp := b.Begin(trace.KindExperiment, "e")
	b.Begin(trace.KindTrial, "t0")
	b.Advance(5)
	b.End()
	b.Begin(trace.KindTrial, "t1")
	b.Advance(3)
	b.End()
	b.End()
	tr := b.Trace()

	if len(tr.Roots) != 1 || tr.Roots[0] != exp {
		t.Fatalf("roots = %v", tr.Roots)
	}
	if got := len(exp.Children); got != 2 {
		t.Fatalf("children = %d, want 2", got)
	}
	if exp.Start != 0 || exp.End != 8 {
		t.Errorf("experiment interval [%d,%d), want [0,8)", exp.Start, exp.End)
	}
	if c := exp.Children[1]; c.Start != 5 || c.End != 8 {
		t.Errorf("t1 interval [%d,%d), want [5,8)", c.Start, c.End)
	}
	if tr.NumSpans() != 3 {
		t.Errorf("NumSpans = %d, want 3", tr.NumSpans())
	}
}

func TestBuilderPanicsOnNegativeAdvance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative advance")
		}
	}()
	trace.NewBuilder().Advance(-1)
}

func TestBuilderPanicsOnUnbalancedEnd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on End without Begin")
		}
	}()
	trace.NewBuilder().End()
}

func TestTraceClosesOpenSpans(t *testing.T) {
	b := trace.NewBuilder()
	b.Begin(trace.KindSession, "s")
	b.Advance(4)
	tr := b.Trace()
	if b.Open() != 0 {
		t.Fatalf("Open = %d after Trace", b.Open())
	}
	if tr.Roots[0].End != 4 {
		t.Fatalf("auto-closed span ends at %d, want 4", tr.Roots[0].End)
	}
}

// TestSpanQuerierSession drives a real 2tBins session through a span
// querier — a tap carrying a SpanRecorder annotated by its substrate — and
// checks the span tree mirrors the session structure.
func TestSpanQuerierSession(t *testing.T) {
	r := rng.New(7)
	ch, _ := fastsim.RandomPositives(64, 10, fastsim.DefaultConfig(), r.Split(1))
	b := trace.NewBuilder()
	sq := trace.NewSpanRecorder(b, ch)
	sq.StartSession("2tBins", trace.IntAttr("n", 64))
	res, err := (core.TwoTBins{}).Run(query.NewTap(ch, sq), 64, 8, r.Split(2))
	if err != nil {
		t.Fatal(err)
	}
	sq.EndSession(trace.IntAttr("queries", res.Queries))
	tr := b.Trace()

	if len(tr.Roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(tr.Roots))
	}
	sess := tr.Roots[0]
	if sess.Kind != trace.KindSession || sess.Name != "2tBins" {
		t.Fatalf("root = %s %q", sess.Kind, sess.Name)
	}
	// One slot per poll on the abstract channel: the session's virtual
	// extent equals its query count.
	if sess.Slots() != int64(res.Queries) {
		t.Errorf("session slots = %d, want %d (queries)", sess.Slots(), res.Queries)
	}
	polls := 0
	rounds := 0
	sess.Walk(func(_ int, sp *trace.Span) {
		switch sp.Kind {
		case trace.KindPoll:
			polls++
			if sp.Slots() != 1 {
				t.Errorf("poll %q spans %d slots, want 1", sp.Name, sp.Slots())
			}
			if _, ok := sp.Attr("bin_size"); !ok {
				t.Errorf("poll %q missing bin_size", sp.Name)
			}
		case trace.KindRound:
			rounds++
		}
	})
	if polls != res.Queries {
		t.Errorf("poll spans = %d, want %d", polls, res.Queries)
	}
	if rounds != res.Rounds {
		t.Errorf("round spans = %d, want %d (res.Rounds)", rounds, res.Rounds)
	}
	if v, ok := sess.Attr("polls"); !ok || v != itoa(res.Queries) {
		t.Errorf("session polls attr = %q, want %d", v, res.Queries)
	}
	// The abstract channel annotates the session with its substrate.
	if v, ok := sess.Attr("substrate"); !ok || v != "fastsim" {
		t.Errorf("substrate attr = %q, want fastsim", v)
	}
}

// TestSpanQuerierPacketSlots checks virtual time rides the packet
// substrate's own slot meter: 2 slots per pollcast query, 3 per backcast.
func TestSpanQuerierPacketSlots(t *testing.T) {
	for _, tc := range []struct {
		prim  pollcast.Primitive
		model query.CollisionModel
		want  int64
	}{
		{pollcast.Pollcast, query.OnePlus, 2},
		{pollcast.Backcast, query.OnePlus, 3},
	} {
		r := rng.New(3)
		parts := make([]*pollcast.Participant, 16)
		for id := range parts {
			parts[id] = &pollcast.Participant{ID: id}
		}
		for _, id := range r.Split(1).Sample(16, 5) {
			parts[id].Positive = true
		}
		med := radio.NewMedium(radio.Config{}, r.Split(2))
		sess, err := pollcast.NewSession(med, 1<<16, parts, tc.prim, tc.model)
		if err != nil {
			t.Fatal(err)
		}
		b := trace.NewBuilder()
		sq := trace.NewSpanRecorder(b, sess)
		sq.StartSession("probe")
		res, err := (core.TwoTBins{}).Run(query.NewTap(sess, sq), 16, 4, r.Split(3))
		if err != nil {
			t.Fatal(err)
		}
		sq.EndSession()
		tr := b.Trace()
		root := tr.Roots[0]
		if got, want := root.Slots(), tc.want*int64(res.Queries); got != want {
			t.Errorf("%v: session slots = %d, want %d (%d slots x %d queries)",
				tc.prim, got, want, tc.want, res.Queries)
		}
		root.Walk(func(_ int, sp *trace.Span) {
			if sp.Kind == trace.KindPoll && sp.Slots() != tc.want {
				t.Errorf("%v: poll spans %d slots, want %d", tc.prim, sp.Slots(), tc.want)
			}
		})
		// The packet session contributes its Annotator attributes.
		if v, ok := root.Attr("primitive"); !ok || v != tc.prim.String() {
			t.Errorf("%v: primitive attr = %q", tc.prim, v)
		}
	}
}

func TestAnalyze(t *testing.T) {
	b := trace.NewBuilder()
	b.Begin(trace.KindSession, "s")
	for i := 0; i < 3; i++ {
		sp := b.Begin(trace.KindPoll, "p")
		b.Advance(2)
		sp.SetAttr(trace.IntAttr("bin_size", 4))
		b.End()
	}
	b.End()
	a := trace.Analyze(b.Trace())

	if a.Polls != 3 || a.NodesPolled != 12 {
		t.Errorf("polls=%d nodes=%d, want 3/12", a.Polls, a.NodesPolled)
	}
	if a.Slots != 6 || a.Spans != 4 {
		t.Errorf("slots=%d spans=%d, want 6/4", a.Slots, a.Spans)
	}
	sess := a.Phases[trace.KindSession]
	if sess.Slots != 6 || sess.SelfSlots != 0 {
		t.Errorf("session phase slots=%d self=%d, want 6/0", sess.Slots, sess.SelfSlots)
	}
	out := a.Render()
	if !strings.Contains(out, "poll") || !strings.Contains(out, "3 polls") {
		t.Errorf("render missing poll stats:\n%s", out)
	}
}

func TestParseSpanKindRoundTrip(t *testing.T) {
	for k := trace.SpanKind(0); int(k) < trace.NumSpanKinds; k++ {
		got, err := trace.ParseSpanKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseSpanKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := trace.ParseSpanKind("bogus"); err == nil {
		t.Error("bogus kind accepted")
	}
}

func itoa(n int) string {
	return trace.IntAttr("", n).Value
}

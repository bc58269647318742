package trace_test

import (
	"strings"
	"testing"

	"tcast/internal/core"
	"tcast/internal/fastsim"
	"tcast/internal/query"
	"tcast/internal/rng"
	"tcast/internal/trace"
)

func TestRecorderCapturesSession(t *testing.T) {
	r := rng.New(1)
	ch, _ := fastsim.RandomPositives(32, 10, fastsim.DefaultConfig(), r.Split(1))
	rec := trace.NewRecorder()
	q := query.NewTap(ch, rec)
	res, err := (core.TwoTBins{}).Run(q, 32, 8, r.Split(2))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != res.Queries {
		t.Fatalf("recorded %d polls, session reported %d", rec.Len(), res.Queries)
	}
	for i, e := range rec.Events() {
		if e.Index != i {
			t.Fatalf("event %d has index %d", i, e.Index)
		}
		if len(e.Bin) == 0 {
			t.Fatalf("event %d polled an empty bin", i)
		}
	}
}

func TestRecorderTraitsForwarded(t *testing.T) {
	r := rng.New(2)
	ch, _ := fastsim.RandomPositives(8, 2, fastsim.TwoPlusConfig(), r)
	rec := trace.NewRecorder()
	q := query.NewTap(ch, rec)
	if tr := q.Traits(); tr.Model != query.TwoPlus || !tr.CaptureEffect {
		t.Fatalf("traits not forwarded: %+v", tr)
	}
}

func TestRecorderBinsAreCopies(t *testing.T) {
	r := rng.New(3)
	ch, _ := fastsim.RandomPositives(8, 1, fastsim.DefaultConfig(), r)
	rec := trace.NewRecorder()
	q := query.NewTap(ch, rec)
	bin := []int{0, 1, 2}
	q.Query(bin)
	bin[0] = 99
	if rec.Events()[0].Bin[0] == 99 {
		t.Fatal("recorded bin aliases the caller's slice")
	}
}

func TestSummarize(t *testing.T) {
	r := rng.New(4)
	ch, _ := fastsim.RandomPositives(64, 20, fastsim.DefaultConfig(), r.Split(1))
	rec := trace.NewRecorder()
	q := query.NewTap(ch, rec)
	if _, err := (core.TwoTBins{}).Run(q, 64, 8, r.Split(2)); err != nil {
		t.Fatal(err)
	}
	s := rec.Summarize()
	if s.Polls != rec.Len() {
		t.Fatalf("Polls = %d, want %d", s.Polls, rec.Len())
	}
	if s.Empty+s.Active+s.Decoded+s.Collisions != s.Polls {
		t.Fatalf("response kinds do not add up: %+v", s)
	}
	if s.Active == 0 {
		t.Fatal("x=20 >= t=8 session saw no active bins")
	}
	if s.NodesPolled < s.Polls {
		t.Fatalf("NodesPolled %d below poll count %d", s.NodesPolled, s.Polls)
	}
}

func TestRenderFormat(t *testing.T) {
	r := rng.New(5)
	ch := fastsim.New(12, []int{3}, fastsim.TwoPlusConfig(), r)
	rec := trace.NewRecorder()
	q := query.NewTap(ch, rec)
	q.Query([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}) // decodes node 3
	q.Query([]int{0, 1})                                 // empty
	out := rec.Render()
	if !strings.Contains(out, "decoded (node 3)") {
		t.Errorf("decode line missing: %s", out)
	}
	if !strings.Contains(out, "…+4") {
		t.Errorf("long-bin ellipsis missing: %s", out)
	}
	if !strings.Contains(out, "empty") {
		t.Errorf("empty line missing: %s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 2 {
		t.Errorf("want 2 lines, got %d", lines)
	}
}

func TestReset(t *testing.T) {
	r := rng.New(6)
	ch, _ := fastsim.RandomPositives(8, 2, fastsim.DefaultConfig(), r)
	rec := trace.NewRecorder()
	q := query.NewTap(ch, rec)
	q.Query([]int{0})
	rec.Reset()
	if rec.Len() != 0 {
		t.Fatal("Reset kept events")
	}
}

// TestReplayRoundTrip: replaying a recorded session with the same RNG
// stream reproduces the identical decision and poll sequence — the
// determinism property the experiment harness relies on.
func TestReplayRoundTrip(t *testing.T) {
	for _, algSeed := range []uint64{7, 8, 9, 10} {
		root := rng.New(algSeed)
		ch, _ := fastsim.RandomPositives(64, 12, fastsim.DefaultConfig(), root.Split(1))
		rec := trace.NewRecorder()
		q := query.NewTap(ch, rec)
		want, err := (core.ABNS{P0: 1}).Run(q, 64, 8, root.Split(2))
		if err != nil {
			t.Fatal(err)
		}

		rep := trace.NewReplayer(rec.Events(), q.Traits())
		got, err := (core.ABNS{P0: 1}).Run(rep, 64, 8, rng.New(algSeed).Split(2))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Err() != nil {
			t.Fatal(rep.Err())
		}
		if !rep.Done() {
			t.Fatal("replay did not consume every recorded poll")
		}
		if got != want {
			t.Fatalf("replayed result %+v differs from recorded %+v", got, want)
		}
	}
}

func TestReplayDetectsDivergence(t *testing.T) {
	events := []trace.Event{{Index: 0, Bin: []int{1, 2}, Response: query.Response{Kind: query.Empty}}}
	rep := trace.NewReplayer(events, query.Traits{})
	rep.Query([]int{3, 4})
	if rep.Err() == nil {
		t.Fatal("divergent bin not detected")
	}
}

func TestReplayDetectsExhaustion(t *testing.T) {
	rep := trace.NewReplayer(nil, query.Traits{})
	rep.Query([]int{1})
	if rep.Err() == nil {
		t.Fatal("exhausted replay not detected")
	}
}

// TestMustDone covers the three verdicts: clean complete replay → nil,
// early stop → error, and diverged replay → the *first* error is kept even
// after further polls.
func TestMustDone(t *testing.T) {
	events := []trace.Event{
		{Index: 0, Bin: []int{1}, Response: query.Response{Kind: query.Empty}},
		{Index: 1, Bin: []int{2}, Response: query.Response{Kind: query.Active}},
	}

	rep := trace.NewReplayer(events, query.Traits{})
	rep.Query([]int{1})
	rep.Query([]int{2})
	if err := rep.MustDone(); err != nil {
		t.Errorf("clean replay: MustDone = %v", err)
	}

	rep = trace.NewReplayer(events, query.Traits{})
	rep.Query([]int{1})
	if err := rep.MustDone(); err == nil {
		t.Error("early stop: MustDone = nil, want error")
	}

	rep = trace.NewReplayer(events, query.Traits{})
	rep.Query([]int{9}) // diverges at poll 0
	first := rep.Err()
	rep.Query([]int{2}) // would match poll 1, but replay is already a sink
	rep.Query([]int{3})
	if rep.Err() != first {
		t.Errorf("later polls replaced the first error: %v -> %v", first, rep.Err())
	}
	if err := rep.MustDone(); err != first {
		t.Errorf("diverged: MustDone = %v, want first error %v", err, first)
	}
}

package trace

import (
	"bytes"
	"strconv"
	"testing"

	"tcast/internal/query"
)

// fixedQuerier answers every poll Active at one slot per query.
type fixedQuerier struct{ polls int }

func (f *fixedQuerier) Query(bin []int) query.Response {
	f.polls++
	return query.Response{Kind: query.Active}
}
func (f *fixedQuerier) Traits() query.Traits { return query.Traits{Model: query.OnePlus} }

// runSampledSession drives one 100-poll session at the given rate and
// returns its encoded trace.
func runSampledSession(k int, key uint64) *Trace {
	b := NewBuilder()
	sq := NewSpanRecorder(b)
	sq.SetSampling(k, key)
	sq.StartSession("2tbins", IntAttr("n", 128))
	q := query.NewTap(&fixedQuerier{}, sq)
	q.TraceRound(1)
	bin := []int{1, 2, 3, 4}
	for i := 0; i < 100; i++ {
		q.Query(bin)
	}
	sq.EndSession(BoolAttr("decision", true))
	return b.Trace()
}

// TestSamplingOffByteIdentical: k<=1 must produce exactly the
// pre-sampling trace — same spans, same attrs, same bytes.
func TestSamplingOffByteIdentical(t *testing.T) {
	enc := func(tr *Trace) []byte {
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := enc(runSampledSession(0, 0))
	for _, k := range []int{-3, 0, 1} {
		for _, key := range []uint64{0, 7, 1 << 40} {
			if got := enc(runSampledSession(k, key)); !bytes.Equal(got, base) {
				t.Fatalf("k=%d key=%d: trace differs from unsampled", k, key)
			}
		}
	}
}

// TestSamplingKeepsClockAndCountsExact: sampling thins poll leaves only;
// session width and poll/node counters must not change.
func TestSamplingKeepsClockAndCountsExact(t *testing.T) {
	full := runSampledSession(1, 0)
	sampled := runSampledSession(8, 42)

	fullSession := full.Roots[0]
	sampledSession := sampled.Roots[0]
	if fullSession.Slots() != sampledSession.Slots() {
		t.Errorf("session width changed: %d vs %d", sampledSession.Slots(), fullSession.Slots())
	}
	for _, key := range []string{"polls", "nodes_polled"} {
		fv, _ := fullSession.Attr(key)
		sv, _ := sampledSession.Attr(key)
		if fv != sv {
			t.Errorf("session attr %s changed: %q vs %q", key, sv, fv)
		}
	}

	fullA := Analyze(full)
	sampledA := Analyze(sampled)
	if fullA.SampledPolls != 100 || fullA.Polls != 100 {
		t.Fatalf("full analysis: %+v", fullA)
	}
	if sampledA.SampledPolls >= 100 || sampledA.SampledPolls == 0 {
		t.Fatalf("sampled trace recorded %d leaves, want 0 < n < 100", sampledA.SampledPolls)
	}
	if sampledA.Polls != sampledA.SampledPolls*8 {
		t.Errorf("scaled polls %d, want %d*8", sampledA.Polls, sampledA.SampledPolls)
	}
	if sampledA.NodesPolled != sampledA.SampledPolls*8*4 {
		t.Errorf("scaled node-polls %d", sampledA.NodesPolled)
	}
	// Every recorded leaf carries the rate attribute.
	for _, sp := range sampledSession.Children[0].Children {
		if sp.Kind != KindPoll {
			continue
		}
		if v, ok := sp.Attr(AttrSampleRate); !ok || v != "8" {
			t.Fatalf("poll leaf missing %s=8: %+v", AttrSampleRate, sp.Attrs)
		}
	}
}

// TestSamplingDeterministic: the same (key, session, index) always keeps
// the same spans; a different key keeps different ones.
func TestSamplingDeterministic(t *testing.T) {
	names := func(tr *Trace) []string {
		var out []string
		tr.Roots[0].Walk(func(_ int, sp *Span) {
			if sp.Kind == KindPoll {
				out = append(out, sp.Name)
			}
		})
		return out
	}
	a := names(runSampledSession(4, 7))
	b := names(runSampledSession(4, 7))
	if len(a) == 0 {
		t.Fatal("no polls sampled at k=4")
	}
	if strconv.Itoa(len(a)) != strconv.Itoa(len(b)) {
		t.Fatalf("re-run sampled %d vs %d spans", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("re-run sampled different spans: %v vs %v", a, b)
		}
	}
	c := names(runSampledSession(4, 8))
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Errorf("keys 7 and 8 sampled identical span sets %v", a)
	}
	// Expected density: roughly 1/4 of 100 polls, loosely bounded.
	if len(a) < 10 || len(a) > 45 {
		t.Errorf("k=4 sampled %d/100 polls; want ~25", len(a))
	}
}

package metrics

import (
	"sync"
	"testing"

	"tcast/internal/fastsim"
	"tcast/internal/query"
	"tcast/internal/rng"
)

// kindValue finds the counter value for one kind label in a snapshot.
func kindValue(t *testing.T, s Snapshot, kind string) int64 {
	t.Helper()
	name := Name(MetricPolls, "kind", kind)
	for _, c := range s.Counters {
		if c.Name == name {
			return int64(c.Value)
		}
	}
	return 0
}

func TestInstrumentedQuerierPartitionsPolls(t *testing.T) {
	m := New()
	ch, _ := fastsim.RandomPositives(64, 10, fastsim.TwoPlusConfig(), rng.New(3))
	o := NewObserver(m)
	q := query.NewTap(ch, o)
	members := make([]int, 64)
	for i := range members {
		members[i] = i
	}
	polls := 0
	r := rng.New(9)
	for i := 0; i < 200; i++ {
		lo := int(r.Uint64() % 60)
		hi := lo + 1 + int(r.Uint64()%4)
		q.Query(members[lo:hi])
		polls++
	}
	o.Finish()

	s := m.Snapshot()
	var perKind int64
	for _, k := range []string{"empty", "active", "decoded", "collision"} {
		perKind += kindValue(t, s, k)
	}
	if perKind != int64(polls) {
		t.Fatalf("per-kind counters sum to %d, want %d polls", perKind, polls)
	}
	for _, h := range s.Histograms {
		switch h.Name {
		case MetricSessionPolls:
			if h.Count != 1 || h.Sum != float64(polls) {
				t.Fatalf("session polls histogram = count %d sum %v", h.Count, h.Sum)
			}
		case MetricBinSize:
			if h.Count != uint64(polls) {
				t.Fatalf("bin size count = %d, want %d", h.Count, polls)
			}
		}
	}
}

// TestInstrumentedQuerierTransparent proves an instrumented querier (a
// tap carrying an Observer) does not perturb the query stream: the same
// algorithm run against the same seed sees identical responses with and
// without instrumentation.
func TestInstrumentedQuerierTransparent(t *testing.T) {
	run := func(instrument bool) []query.Response {
		ch, _ := fastsim.RandomPositives(32, 7, fastsim.TwoPlusConfig(), rng.New(11))
		var q query.Querier = ch
		if instrument {
			q = Wrap(ch, New())
		}
		members := make([]int, 32)
		for i := range members {
			members[i] = i
		}
		var out []query.Response
		for i := 0; i+4 <= 32; i += 4 {
			out = append(out, q.Query(members[i:i+4]))
		}
		return out
	}
	plain, inst := run(false), run(true)
	for i := range plain {
		if plain[i] != inst[i] {
			t.Fatalf("response %d differs: %+v vs %+v", i, plain[i], inst[i])
		}
	}
}

func TestWrapNilRegistry(t *testing.T) {
	ch, _ := fastsim.RandomPositives(8, 2, fastsim.DefaultConfig(), rng.New(1))
	if Wrap(ch, nil) != query.Querier(ch) {
		t.Fatal("nil registry should return the querier unchanged")
	}
	m := New()
	w := Wrap(ch, m)
	if tap, ok := w.(*query.Tap); !ok || len(tap.Observers()) != 1 {
		t.Fatalf("Wrap returned %T", w)
	}
	// FinishSession must be a no-op on unwrapped queriers and record on
	// wrapped ones.
	FinishSession(ch)
	w.Query([]int{0, 1})
	FinishSession(w)
	if got := m.Counter(MetricSessions).Value(); got != 1 {
		t.Fatalf("sessions = %d, want 1", got)
	}
}

func TestRecordMatchesQueryInstruments(t *testing.T) {
	m := New()
	iq := NewObserver(m)
	iq.Record(query.Empty, 3)
	iq.Record(query.Active, 5)
	kinds, nodes := iq.Session()
	if kinds.Empty != 1 || kinds.Active != 1 || kinds.Total() != 2 || nodes != 8 {
		t.Fatalf("session = %+v nodes=%d", kinds, nodes)
	}
	iq.Finish()
	kinds, nodes = iq.Session()
	if kinds.Total() != 0 || nodes != 0 {
		t.Fatal("Finish did not reset the session tallies")
	}
	if m.Counter(MetricNodesPolled).Value() != 8 {
		t.Fatalf("nodes polled = %d", m.Counter(MetricNodesPolled).Value())
	}
}

// TestConcurrentSessions runs many sessions against one registry in
// parallel — the shape RunTrials produces — and checks the shared counters
// are exact (run under -race in CI).
func TestConcurrentSessions(t *testing.T) {
	const sessions = 32
	const pollsPer = 100
	m := New()
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ch, _ := fastsim.RandomPositives(64, 12, fastsim.DefaultConfig(), rng.New(uint64(s)))
			q := Wrap(ch, m)
			bin := []int{1, 2, 3}
			for i := 0; i < pollsPer; i++ {
				q.Query(bin)
			}
			FinishSession(q)
		}(s)
	}
	wg.Wait()
	s := m.Snapshot()
	var perKind int64
	for _, k := range []string{"empty", "active", "decoded", "collision"} {
		perKind += kindValue(t, s, k)
	}
	if perKind != sessions*pollsPer {
		t.Fatalf("per-kind counters sum to %d, want %d", perKind, sessions*pollsPer)
	}
	if got := m.Counter(MetricNodesPolled).Value(); got != sessions*pollsPer*3 {
		t.Fatalf("nodes polled = %d, want %d", got, sessions*pollsPer*3)
	}
	if got := m.Counter(MetricSessions).Value(); got != sessions {
		t.Fatalf("sessions = %d, want %d", got, sessions)
	}
}

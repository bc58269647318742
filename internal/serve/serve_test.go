package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"tcast/internal/audit"
	"tcast/internal/core"
	"tcast/internal/fastsim"
	"tcast/internal/faults"
	"tcast/internal/metrics"
	"tcast/internal/obs"
	"tcast/internal/query"
	"tcast/internal/rng"
	"tcast/internal/trial"
)

// drain tears a test pool down with a bounded context.
func drain(t *testing.T, p *Pool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestSessionMatchesTcastsim is the acceptance bar for the medium
// wrapper: a single admitted session's verdict and slot cost must be
// byte-identical to the same (seed, trial) built by hand the way tcastsim
// builds it — channel from Split(1), faults from Split(9), retry and audit
// above them, algorithm randomness from Split(2), no medium in the stack.
func TestSessionMatchesTcastsim(t *testing.T) {
	cases := []struct {
		alg     string
		n, tt   int
		x       int
		seed    uint64
		trial   int
		faults  string
		retries int
		backoff int
		audit   bool
	}{
		{alg: "2tbins", n: 128, tt: 16, x: 20, seed: 7},
		{alg: "2tbins", n: 128, tt: 16, x: 12, seed: 2011, trial: 3},
		{alg: "exp", n: 256, tt: 32, x: 40, seed: 42, trial: 1},
		{alg: "abns-t", n: 128, tt: 16, x: 16, seed: 9},
		{alg: "abns-2t", n: 128, tt: 16, x: 8, seed: 11, trial: 2},
		{alg: "probabns", n: 128, tt: 16, x: 24, seed: 13},
		{alg: "oracle", n: 128, tt: 16, x: 15, seed: 17},
		// Faulted and retried: the injector's Split(9) stream and the
		// retry meter must line up with tcastsim's derivation.
		{alg: "2tbins", n: 128, tt: 16, x: 20, seed: 7, faults: "burst=8,frac=0.5", retries: 2, backoff: 1},
		{alg: "exp", n: 128, tt: 16, x: 12, seed: 5, trial: 4, faults: "burst=4,frac=0.3,churn=0.01,skew=0.02", retries: 1},
		{alg: "2tbins", n: 128, tt: 16, x: 16, seed: 3, faults: "skew=0.1"},
		// Audited: the verdict's outcome must match the reference auditor.
		{alg: "probabns", n: 128, tt: 16, x: 24, seed: 13, audit: true},
		{alg: "2tbins", n: 128, tt: 16, x: 16, seed: 21, trial: 2, faults: "burst=8,frac=0.5", retries: 2, backoff: 1, audit: true},
	}
	p := NewPool(Config{})
	defer drain(t, p)
	for _, c := range cases {
		c := c
		name := fmt.Sprintf("%s/x=%d/seed=%d", c.alg, c.x, c.seed)
		if c.faults != "" {
			name += "/faults=" + c.faults + fmt.Sprintf("/retries=%d", c.retries)
		}
		if c.audit {
			name += "/audited"
		}
		t.Run(name, func(t *testing.T) {
			// Reference: tcastsim's trial derivation, contention-free.
			alg, err := trial.Algorithm(c.alg)
			if err != nil {
				t.Fatal(err)
			}
			root := rng.New(c.seed)
			var src rng.Source
			root.SplitInto(uint64(c.trial), &src)
			ch, _ := fastsim.RandomPositives(c.n, c.x, fastsim.DefaultConfig(), src.Split(1))
			if o, ok := alg.(core.Oracle); ok {
				o.Truth = ch
				alg = o
			}
			fcfg, err := faults.ParseSpec(c.faults)
			if err != nil {
				t.Fatal(err)
			}
			var q query.Querier = ch
			if fcfg.Active() {
				q = faults.New(q, fcfg, c.n, src.Split(9))
			}
			q = query.WithRetry(q, query.RetryPolicy{MaxRetries: c.retries, Backoff: c.backoff})
			attempts := func() int64 { return 0 }
			if rq, ok := q.(*query.Retry); ok {
				attempts = func() int64 { return int64(rq.Attempts()) }
			}
			var aud *audit.Auditor
			if c.audit {
				if aud, err = audit.New(q, audit.Config{N: c.n, T: c.tt}); err != nil {
					t.Fatal(err)
				}
				q = aud
			}
			want, err := alg.Run(q, c.n, c.tt, src.Split(2))
			if err != nil {
				t.Fatal(err)
			}
			wantSlots := obs.ChainSlots(q, want.Queries)
			// The medium sits below the retry layer: it carries every
			// attempt, one slot each on the meterless channel.
			wantMedium := int64(want.Queries)
			if n := attempts(); n > 0 {
				wantMedium = n
			}

			s, err := p.Submit(Spec{N: c.n, T: c.tt, X: c.x, Alg: c.alg,
				Seed: c.seed, Trial: c.trial, Field: -1,
				Faults: c.faults, Retries: c.retries, Backoff: c.backoff, Audit: c.audit}, "identity")
			if err != nil {
				t.Fatal(err)
			}
			<-s.Done()
			r, err := s.Result()
			if err != nil {
				t.Fatalf("session error: %v", err)
			}
			if r.Decision != want.Decision || r.Polls != want.Queries || r.Rounds != want.Rounds {
				t.Fatalf("served (decision=%v polls=%d rounds=%d) != tcastsim (decision=%v polls=%d rounds=%d)",
					r.Decision, r.Polls, r.Rounds, want.Decision, want.Queries, want.Rounds)
			}
			if r.SessionSlots != wantSlots || r.MediumSlots != wantMedium {
				t.Fatalf("slots: session=%d medium=%d, want %d and %d", r.SessionSlots, r.MediumSlots, wantSlots, wantMedium)
			}
			if aud != nil {
				if v := aud.Finish(want.Decision); r.Outcome != v.Outcome.String() || r.Correct != v.Correct() {
					t.Fatalf("served outcome %s (correct=%v), reference verdict %s (correct=%v)",
						r.Outcome, r.Correct, v.Outcome, v.Correct())
				}
			}
			if r.WaitedSlots != 0 {
				t.Fatalf("uncontended session waited %d slots", r.WaitedSlots)
			}
			if r.SpanSlots != r.MediumSlots+r.WaitedSlots {
				t.Fatalf("span=%d != medium(%d)+waited(%d)", r.SpanSlots, r.MediumSlots, r.WaitedSlots)
			}
		})
	}
}

// contendedLedger runs a fixed fleet of sessions on one held field at
// the given GOMAXPROCS, at most maxActive of them on the medium at once
// (the rest queue), and returns the JSON of their results in admission
// order.
func contendedLedger(t *testing.T, procs, sessions, maxActive int) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	p := NewPool(Config{Fields: 1, MaxActive: maxActive, Hold: true})
	defer drain(t, p)
	algs := []string{"2tbins", "exp", "abns-t", "probabns"}
	subs := make([]*Session, 0, sessions)
	for i := 0; i < sessions; i++ {
		s, err := p.Submit(Spec{
			N: 128, T: 16, X: 8 + 2*i, Alg: algs[i%len(algs)],
			Seed: uint64(100 + i), Field: 0, Audit: true,
		}, fmt.Sprintf("client-%d", i%3))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	p.Open()
	results := make([]Result, 0, sessions)
	for _, s := range subs {
		<-s.Done()
		r, err := s.Result()
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		results = append(results, *r)
	}
	b, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSchedulerDeterministic pins the tentpole property: the same seeds
// and arrival order produce byte-identical verdicts and slot ledgers
// regardless of GOMAXPROCS. Run under -race in CI, this is also the
// scheduler's data-race canary.
func TestSchedulerDeterministic(t *testing.T) {
	const sessions = 12
	want := contendedLedger(t, 1, sessions, sessions)
	for _, procs := range []int{2, runtime.NumCPU()} {
		got := contendedLedger(t, procs, sessions, sessions)
		if string(got) != string(want) {
			t.Fatalf("ledger differs at GOMAXPROCS=%d:\n%s\nvs GOMAXPROCS=1:\n%s", procs, got, want)
		}
	}
	// A queued fleet (3 of 12 on the medium at once): backlogged sessions
	// must join the medium in a fixed order too.
	wantQueued := contendedLedger(t, 1, sessions, 3)
	for _, procs := range []int{2, runtime.NumCPU()} {
		got := contendedLedger(t, procs, sessions, 3)
		if string(got) != string(wantQueued) {
			t.Fatalf("queued ledger differs at GOMAXPROCS=%d:\n%s\nvs GOMAXPROCS=1:\n%s", procs, got, wantQueued)
		}
	}
	// The ledger must show real contention: total waiting is positive and
	// every session's span decomposes into its own occupancy + waiting.
	var results []Result
	if err := json.Unmarshal(want, &results); err != nil {
		t.Fatal(err)
	}
	var waited int64
	for i, r := range results {
		waited += r.WaitedSlots
		if r.SpanSlots != r.MediumSlots+r.WaitedSlots {
			t.Fatalf("session %d: span=%d != medium(%d)+waited(%d)", i, r.SpanSlots, r.MediumSlots, r.WaitedSlots)
		}
		if !r.Correct {
			t.Fatalf("session %d: outcome %s under contention", i, r.Outcome)
		}
	}
	if waited == 0 {
		t.Fatal("no session waited: the fleet did not contend")
	}
}

// TestContentionPreservesVerdict verifies contention only reprices —
// sessions sharing a medium return the same decision, polls and own
// slots as the same seeds served alone.
func TestContentionPreservesVerdict(t *testing.T) {
	specs := make([]Spec, 6)
	for i := range specs {
		specs[i] = Spec{N: 128, T: 16, X: 10 + 3*i, Alg: "2tbins", Seed: uint64(500 + i), Field: 0}
	}

	alone := make([]Result, len(specs))
	for i, sp := range specs {
		p := NewPool(Config{Fields: 1})
		s, err := p.Submit(sp, "alone")
		if err != nil {
			t.Fatal(err)
		}
		<-s.Done()
		r, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = *r
		drain(t, p)
	}

	p := NewPool(Config{Fields: 1, MaxActive: len(specs), Hold: true})
	defer drain(t, p)
	subs := make([]*Session, len(specs))
	for i, sp := range specs {
		s, err := p.Submit(sp, "crowd")
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	p.Open()
	for i, s := range subs {
		<-s.Done()
		r, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		if r.Decision != alone[i].Decision || r.Polls != alone[i].Polls ||
			r.SessionSlots != alone[i].SessionSlots || r.MediumSlots != alone[i].MediumSlots {
			t.Fatalf("session %d perturbed by contention: contended %+v, alone %+v", i, *r, alone[i])
		}
	}
}

// TestOverloadShedding verifies the bounded queue: past MaxActive +
// MaxQueue, submissions shed with an OverloadError carrying Retry-After,
// already-admitted sessions still finish, and capacity frees once they
// do.
func TestOverloadShedding(t *testing.T) {
	reg := metrics.New()
	p := NewPool(Config{Fields: 1, MaxActive: 1, MaxQueue: 2, Hold: true, Registry: reg})
	defer drain(t, p)

	admitted := make([]*Session, 0, 3)
	for i := 0; i < 3; i++ {
		s, err := p.Submit(Spec{N: 64, T: 8, X: 10, Seed: uint64(i), Field: 0}, fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatalf("submission %d shed below the bound: %v", i, err)
		}
		admitted = append(admitted, s)
	}
	_, err := p.Submit(Spec{N: 64, T: 8, X: 10, Seed: 99, Field: 0}, "c9")
	var over *OverloadError
	if !errors.As(err, &over) {
		t.Fatalf("4th submission: got %v, want OverloadError", err)
	}
	if over.RetryAfter <= 0 {
		t.Fatalf("OverloadError.RetryAfter = %v", over.RetryAfter)
	}

	// Shedding must not starve the admitted: open the field and all three
	// finish.
	p.Open()
	for i, s := range admitted {
		select {
		case <-s.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("admitted session %d starved after shedding", i)
		}
		if _, err := s.Result(); err != nil {
			t.Fatalf("admitted session %d: %v", i, err)
		}
	}

	// Capacity freed: the next submission is admitted again.
	s, err := p.Submit(Spec{N: 64, T: 8, X: 10, Seed: 100, Field: 0}, "c9")
	if err != nil {
		t.Fatalf("post-drain submission shed: %v", err)
	}
	<-s.Done()

	if v := reg.Counter("serve_shed_total", "reason", "queue").Value(); v != 1 {
		t.Fatalf("serve_shed_total{reason=queue} = %v, want 1", v)
	}
}

// TestPerClientLimit verifies one client cannot monopolize admission.
func TestPerClientLimit(t *testing.T) {
	p := NewPool(Config{Fields: 1, MaxActive: 1, MaxQueue: 8, MaxPerClient: 2, Hold: true})
	for i := 0; i < 2; i++ {
		if _, err := p.Submit(Spec{N: 64, T: 8, X: 10, Seed: uint64(i)}, "greedy"); err != nil {
			t.Fatal(err)
		}
	}
	_, err := p.Submit(Spec{N: 64, T: 8, X: 10, Seed: 9}, "greedy")
	var over *OverloadError
	if !errors.As(err, &over) {
		t.Fatalf("3rd session for one client: got %v, want OverloadError", err)
	}
	if _, err := p.Submit(Spec{N: 64, T: 8, X: 10, Seed: 10}, "patient"); err != nil {
		t.Fatalf("other client shed by greedy one: %v", err)
	}
	p.Open()
	drain(t, p)
}

// TestDrainRejectsAndFinishes verifies Drain's contract: in-flight work
// completes, later submissions get ErrDraining.
func TestDrainRejectsAndFinishes(t *testing.T) {
	p := NewPool(Config{Fields: 2})
	subs := make([]*Session, 0, 8)
	for i := 0; i < 8; i++ {
		s, err := p.Submit(Spec{N: 128, T: 16, X: 20, Seed: uint64(i)}, "drainer")
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	drain(t, p)
	for i, s := range subs {
		if !s.State().Terminal() {
			t.Fatalf("session %d not finished after drain: %s", i, s.State())
		}
	}
	if _, err := p.Submit(Spec{N: 64, T: 8, X: 10}, "late"); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submission: got %v, want ErrDraining", err)
	}
}

// TestResubmitOnDone verifies a session's admission slots are free by the
// time its Done fires: a client at its one-session limit that resubmits
// as soon as its previous session finishes is never shed.
func TestResubmitOnDone(t *testing.T) {
	p := NewPool(Config{Fields: 1, MaxActive: 1, MaxQueue: 1, MaxPerClient: 1})
	defer drain(t, p)
	for i := 0; i < 2000; i++ {
		s, err := p.Submit(Spec{N: 16, T: 2, X: 3, Seed: uint64(i), Field: 0}, "eager")
		if err != nil {
			t.Fatalf("round %d: resubmission shed by its own finished session: %v", i, err)
		}
		<-s.Done()
	}
}

// TestSubmitDuringDrain races submitters against Drain: every session
// Submit admitted must be terminal once Drain returns, whichever side of
// the close it landed on. Each submitter keeps one session in flight, so
// the field empties often and Drain can catch a submission mid-way.
func TestSubmitDuringDrain(t *testing.T) {
	for round := 0; round < 1000; round++ {
		p := NewPool(Config{Fields: 2})
		admitted := make([][]*Session, 4)
		drained := make(chan struct{})
		var started, stopped sync.WaitGroup
		for g := range admitted {
			started.Add(1)
			stopped.Add(1)
			go func(g int) {
				defer stopped.Done()
				for i := 0; ; i++ {
					s, err := p.Submit(Spec{N: 16, T: 2, X: 3, Seed: uint64(i), Field: -1}, fmt.Sprintf("g%d", g))
					if i == 0 {
						started.Done()
					}
					if errors.Is(err, ErrDraining) {
						return
					}
					if err != nil {
						t.Errorf("submitter %d: %v", g, err)
						return
					}
					admitted[g] = append(admitted[g], s)
					select {
					case <-s.Done():
					case <-drained:
					}
				}
			}(g)
		}
		started.Wait()
		drain(t, p)
		close(drained)
		stopped.Wait()
		for g, subs := range admitted {
			for _, s := range subs {
				if !s.State().Terminal() {
					t.Fatalf("round %d: submitter %d's session %s still %s after Drain", round, g, s.ID, s.State())
				}
			}
		}
	}
}

// TestResolveSpecValidation covers the admission-time request checks.
func TestResolveSpecValidation(t *testing.T) {
	p := NewPool(Config{MaxN: 1024})
	defer drain(t, p)
	bad := []Spec{
		{N: 2048, T: 16, X: 1},          // n over MaxN
		{N: 128, T: 0, X: 1, Trial: -1}, // negative trial (t defaults first)
		{N: 128, T: 200, X: 1},          // t > n
		{N: 128, T: 16, X: 200},         // x > n
		{N: 128, T: 16, X: 1, Alg: "magic"},
		{N: 128, T: 16, X: 1, Model: "3+"},
		{N: 128, T: 16, X: 1, Faults: "burst=nope"},
		{N: 128, T: 16, X: 1, Retries: -1},
		{N: 128, T: 16, X: 1, Field: 7}, // outside the pool
	}
	for i, sp := range bad {
		if _, err := p.Submit(sp, "bad"); err == nil {
			t.Fatalf("bad spec %d admitted: %+v", i, sp)
		}
	}
	// Defaults fill a zero spec (Field 0 means pinned field 0 — valid).
	s, err := p.Submit(Spec{Field: -1}, "good")
	if err != nil {
		t.Fatalf("zero spec rejected: %v", err)
	}
	<-s.Done()
	if s.Spec.N == 0 || s.Spec.Alg == "" || s.Spec.Model == "" {
		t.Fatalf("defaults not applied: %+v", s.Spec)
	}
}

// TestFaultedAuditedSession exercises the full stack — faults below the
// medium, retry middleware, audit grading — through the pool.
func TestFaultedAuditedSession(t *testing.T) {
	p := NewPool(Config{})
	defer drain(t, p)
	s, err := p.Submit(Spec{
		N: 128, T: 16, X: 24, Seed: 31, Field: -1,
		Faults: "frac=0.2,burst=4", Retries: 2, Backoff: 1, Audit: true,
	}, "faulty")
	if err != nil {
		t.Fatal(err)
	}
	<-s.Done()
	r, err := s.Result()
	if err != nil {
		t.Fatalf("session failed: %v", err)
	}
	if r.Outcome == "" {
		t.Fatal("audited session has no outcome")
	}
	if r.SessionSlots < int64(r.Polls) {
		t.Fatalf("slots %d below polls %d despite retries", r.SessionSlots, r.Polls)
	}
}

// TestHistoryEviction verifies the session directory stays bounded.
func TestHistoryEviction(t *testing.T) {
	p := NewPool(Config{MaxHistory: 4})
	defer drain(t, p)
	ids := make([]string, 0, 10)
	for i := 0; i < 10; i++ {
		s, err := p.Submit(Spec{N: 64, T: 8, X: 10, Seed: uint64(i), Field: -1}, "hist")
		if err != nil {
			t.Fatal(err)
		}
		<-s.Done()
		ids = append(ids, s.ID)
	}
	p.mu.Lock()
	kept := len(p.byID)
	p.mu.Unlock()
	if kept > 4 {
		t.Fatalf("directory holds %d sessions, MaxHistory=4", kept)
	}
	if _, ok := p.Session(ids[0]); ok {
		t.Fatal("oldest session survived eviction")
	}
	if _, ok := p.Session(ids[len(ids)-1]); !ok {
		t.Fatal("newest session evicted")
	}
}

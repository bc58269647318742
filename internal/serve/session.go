package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"tcast/internal/audit"
	"tcast/internal/fastsim"
	"tcast/internal/faults"
	"tcast/internal/query"
	"tcast/internal/rng"
	"tcast/internal/trial"
)

// Spec is one query session's resolved parameters — the wire request
// after defaulting and validation. Seed and Trial fix the session's
// entire random draw: the daemon derives its RNG exactly the way
// tcastsim derives trial Trial of a -seed Seed sweep, so any served
// session can be replayed offline.
type Spec struct {
	N     int    `json:"n"`
	T     int    `json:"t"`
	X     int    `json:"x"`
	Alg   string `json:"alg"`
	Model string `json:"model"`
	Seed  uint64 `json:"seed"`
	Trial int    `json:"trial"`
	// Field pins the session to one field of the pool; -1 (the wire
	// default) lets the pool round-robin.
	Field int `json:"field"`
	// Faults is a fault-injection spec (faults.ParseSpec syntax), applied
	// below the medium like tcastsim's -faults.
	Faults string `json:"faults,omitempty"`
	// Retries/Backoff configure the initiator retry middleware.
	Retries int `json:"retries,omitempty"`
	Backoff int `json:"backoff,omitempty"`
	// Audit grades the session against ground truth (audit.Verdict
	// outcome on the result and the obs verdict stream).
	Audit bool `json:"audit,omitempty"`
}

// State is a session's lifecycle position.
type State int32

const (
	// StateQueued: admitted, waiting for a scheduler slot on its field.
	StateQueued State = iota
	// StateRunning: scheduled on the field's medium.
	StateRunning
	// StateDone: finished with a result.
	StateDone
	// StateFailed: finished with an error (round limit, bad stack).
	StateFailed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Terminal reports whether the session has finished either way.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Result is one finished session's verdict and slot ledger. The virtual
// prices split three ways: SessionSlots is the initiator's own cost in
// the paper's model — byte-identical to the same seed run through
// tcastsim, contention cannot change it. MediumSlots is the session's
// occupancy of the shared medium and WaitedSlots the slots it spent
// blocked behind other initiators' transmissions; Span = End - Start is
// the honest end-to-end price of running under contention.
type Result struct {
	Decision  bool   `json:"decision"`
	Truth     bool   `json:"truth"`
	Correct   bool   `json:"correct"`
	Outcome   string `json:"outcome"`
	Polls     int    `json:"polls"`
	Rounds    int    `json:"rounds"`
	Confirmed int    `json:"confirmed,omitempty"`

	SessionSlots int64 `json:"session_slots"`
	MediumSlots  int64 `json:"medium_slots"`
	WaitedSlots  int64 `json:"waited_slots"`
	StartSlot    int64 `json:"start_slot"`
	EndSlot      int64 `json:"end_slot"`
	SpanSlots    int64 `json:"span_slots"`
}

// Session is one admitted query: the scheduler's ledger fields, the
// coroutine's execution state, and the completion signal.
type Session struct {
	ID     string
	Client string
	Spec   Spec

	seq   uint64
	field *Field

	// baton passes control between the field loop and the session's
	// goroutine (see step); lastCost carries the slots of the poll the
	// current step ran back to the loop.
	baton    chan bool
	lastCost int64

	// Scheduler-owned virtual-time ledger (only the field loop writes
	// these after arrival).
	readyAt   int64
	startSlot int64
	waited    int64
	ownSlots  int64

	// Written by the session's coroutine before its last step returns,
	// read by finish, which returns st to the trial pool once the result
	// is assembled.
	st     *trial.State
	sess   *trial.Session
	runErr error

	state     atomic.Int32
	result    *Result
	wall      time.Duration
	submitted time.Time
	done      chan struct{}
}

// State returns the session's lifecycle position.
func (s *Session) State() State { return State(s.state.Load()) }

// Done is closed when the session reaches a terminal state.
func (s *Session) Done() <-chan struct{} { return s.done }

// Result returns the finished session's result, or the run error. It
// must only be consulted after Done() (or a Terminal state).
func (s *Session) Result() (*Result, error) {
	if !s.State().Terminal() {
		return nil, fmt.Errorf("serve: session %s still %s", s.ID, s.State())
	}
	return s.result, s.runErr
}

// Wall returns the submitted→finished wall-clock latency; valid once
// terminal.
func (s *Session) Wall() time.Duration { return s.wall }

// label names the session on the obs bus.
func (s *Session) label() string {
	return fmt.Sprintf("%s/%s/seed=%d", s.ID, s.Spec.Alg, s.Spec.Seed)
}

// Status is the session's wire shape for GET /query/{id}.
type Status struct {
	ID        string  `json:"id"`
	State     string  `json:"state"`
	Spec      Spec    `json:"spec"`
	Result    *Result `json:"result,omitempty"`
	Error     string  `json:"error,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
}

// Status snapshots the session for serving.
func (s *Session) Status() Status {
	st := Status{ID: s.ID, State: s.State().String(), Spec: s.Spec}
	if st.State == StateDone.String() {
		st.Result = s.result
		st.ElapsedMs = float64(s.wall) / 1e6
	}
	if st.State == StateFailed.String() {
		st.Error = s.runErr.Error()
		st.ElapsedMs = float64(s.wall) / 1e6
	}
	return st
}

// resolveSpec fills defaults and validates a submission.
func (p *Pool) resolveSpec(spec Spec) (Spec, error) {
	d := p.cfg.Defaults
	if spec.N == 0 {
		spec.N = d.N
	}
	if spec.T == 0 {
		spec.T = d.T
	}
	if spec.Alg == "" {
		spec.Alg = d.Alg
	}
	if spec.Model == "" {
		spec.Model = d.Model
	}
	if spec.N <= 0 || spec.N > p.cfg.MaxN {
		return spec, fmt.Errorf("serve: n=%d outside [1,%d]", spec.N, p.cfg.MaxN)
	}
	if spec.X < 0 || spec.X > spec.N {
		return spec, fmt.Errorf("serve: x=%d outside [0,%d]", spec.X, spec.N)
	}
	if spec.T < 1 || spec.T > spec.N {
		return spec, fmt.Errorf("serve: t=%d outside [1,%d]", spec.T, spec.N)
	}
	if spec.Trial < 0 {
		return spec, fmt.Errorf("serve: trial=%d negative", spec.Trial)
	}
	if spec.Retries < 0 || spec.Backoff < 0 {
		return spec, fmt.Errorf("serve: negative retry policy")
	}
	if spec.Model != "1+" && spec.Model != "2+" {
		return spec, fmt.Errorf("serve: unknown model %q", spec.Model)
	}
	if _, err := trial.Algorithm(spec.Alg); err != nil {
		return spec, fmt.Errorf("serve: %w", err)
	}
	if _, err := faults.ParseSpec(spec.Faults); err != nil {
		return spec, err
	}
	return spec, nil
}

// execute runs the session as trial Trial of a -seed Seed tcastsim
// sweep, through the same trial stack, with the medium wrapper
// (randomness-free, response-preserving) as the stack's hook between the
// fault injector and the retry layer. A served session's verdict and
// SessionSlots are therefore byte-identical to that trial's. The bus
// events close in finish, in scheduler order.
func (s *Session) execute() error {
	sp := s.Spec
	p := s.field.pool
	cfg := fastsim.DefaultConfig()
	if sp.Model == "2+" {
		cfg = fastsim.TwoPlusConfig()
	}
	alg, err := trial.Algorithm(sp.Alg)
	if err != nil {
		return err
	}
	fcfg, err := faults.ParseSpec(sp.Faults)
	if err != nil {
		return err
	}
	stack := trial.Stack{
		Retry:   query.RetryPolicy{MaxRetries: sp.Retries, Backoff: sp.Backoff},
		Metrics: p.cfg.Registry,
		Obs:     p.cfg.Bus,
	}
	if fcfg.Active() {
		stack.Faults = &fcfg
	}
	var src rng.Source
	rng.New(sp.Seed).SplitInto(uint64(sp.Trial), &src)
	s.st = trial.Get()
	s.sess, err = stack.Open(s.st, s.st.Channel(sp.N, sp.X, cfg, &src), alg, &src, trial.Trial{
		Index: sp.Trial, Label: s.label(), N: sp.N, T: sp.T, X: sp.X, Stream: 2, Audit: sp.Audit,
		Hook: func(q query.Querier) query.Querier { return newMediumQuerier(q, s) },
	})
	if err != nil {
		return err
	}
	_, err = s.sess.Run()
	return err
}

// finish runs on the field's scheduler goroutine once the session's last
// step returns: it assembles the result from the algorithm's outcome and
// the scheduler's ledger, publishes the verdict onto the obs bus (in
// scheduler order, so event streams are as deterministic as the
// schedule), records metrics, returns the admission slots and only then
// releases waiters, so a client resubmitting on Done finds its slot free.
func (s *Session) finish(end int64) {
	p := s.field.pool
	s.wall = time.Since(s.submitted)
	if s.runErr == nil {
		res := s.sess.Result
		r := &Result{
			Decision:  res.Decision,
			Truth:     s.Spec.X >= s.Spec.T,
			Polls:     res.Queries,
			Rounds:    res.Rounds,
			Confirmed: res.Confirmed,

			SessionSlots: s.sess.Slots(),
			MediumSlots:  s.ownSlots,
			WaitedSlots:  s.waited,
			StartSlot:    s.startSlot,
			EndSlot:      end,
			SpanSlots:    end - s.startSlot,
		}
		if s.sess.Audited {
			r.Correct = s.sess.Verdict.Correct()
			r.Outcome = s.sess.Verdict.Outcome.String()
		} else {
			r.Correct = r.Decision == r.Truth
			r.Outcome = audit.OutcomeCorrect.String()
			if !r.Correct {
				r.Outcome = audit.OutcomeWrongUnattributed.String()
			}
		}
		s.result = r
		if p.sessionCtr != nil {
			if r.Correct {
				p.sessionCtr("correct")
			} else {
				p.sessionCtr("wrong")
			}
		}
		if p.latencyH != nil {
			p.latencyH.Observe(float64(s.wall))
		}
		s.state.Store(int32(StateDone))
	} else {
		if p.sessionCtr != nil {
			p.sessionCtr("error")
		}
		s.state.Store(int32(StateFailed))
	}
	if s.sess != nil {
		s.sess.Publish()
	}
	if s.st != nil {
		trial.Put(s.st)
		s.st, s.sess = nil, nil
	}
	p.release(s)
	close(s.done)
}

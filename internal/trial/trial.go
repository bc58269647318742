// Package trial assembles, runs and closes out one tcast session's querier
// stack. It is the one place that fixes the layer order
//
//	substrate → faults → hook → retry → tap
//
// (outermost last), the order of the observers on the tap
//
//	metrics → audit → trace → obs
//
// and the random-stream labels under it: a trial's root stream r gives
// the fault injector r.Split(FaultStream), the abstract channel r.Split(1)
// and the algorithm r.Split(Trial.Stream). Every site that runs a session
// — the figure sweeps, tcastsim, tcastbench and tcastd's served queries —
// goes through a Stack, so a served session equals the same trial of a
// tcastsim sweep by construction.
//
// No layer consumes randomness of its own beyond the injector's reserved
// stream, so results are bit-identical with and without the observers.
package trial

import (
	"fmt"
	"strconv"
	"sync"

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

// FaultStream is the Split label of a trial's fault-injection stream.
// Substrates and algorithms draw from labels 1..3, and Split never
// advances the parent, so reserving the label costs bare runs nothing.
const FaultStream = 9

// Names lists the algorithm names Algorithm resolves: tcastsim's -alg
// values (besides its csma/seq baselines) and tcastd's wire "alg" field.
const Names = "2tbins|exp|abns-t|abns-2t|probabns|oracle"

// Algorithm resolves an algorithm name from Names. The oracle comes back
// without ground truth; Open binds it to the trial's substrate.
func Algorithm(name string) (core.Algorithm, error) {
	switch name {
	case "2tbins":
		return core.TwoTBins{}, nil
	case "exp":
		return core.ExpIncrease{}, nil
	case "abns-t":
		return core.ABNS{P0: 1}, nil
	case "abns-2t":
		return core.ABNS{P0: 2}, nil
	case "probabns":
		return core.ProbABNS{}, nil
	case "oracle":
		return core.Oracle{}, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q (want %s)", name, Names)
}

// Stack configures the optional layers of every trial it opens; the zero
// Stack runs the algorithm on the bare substrate. A Stack is only read
// once trials start, so parallel trials share one.
type Stack struct {
	// Faults, when non-nil, interposes the fault injector directly above
	// the substrate. A zero-rate config is still interposed; such trials
	// are byte-identical to bare ones. An active injector reports itself
	// lossy, so the auditor's bound invariants stand down.
	Faults *faults.Config
	// Retry re-polls silent bins within a priced budget; the zero policy
	// adds no layer.
	Retry query.RetryPolicy
	// Metrics, when non-nil, instruments every poll (and the audit
	// counters of audited trials).
	Metrics *metrics.Registry
	// Audit, when non-nil, grades every trial against the substrate's
	// ground truth and files the verdict under the trial index
	// (Collector.AddAt); the caller flushes it once a batch drains.
	Audit *audit.Collector
	// Trace, when non-nil, renders each trial as trial → session → round
	// → poll spans in the fork keyed by the trial index; the caller
	// grafts the forks once a batch drains. TraceSample > 1 records one
	// in k poll leaves per session, keyed by the trial index
	// (trace.SpanRecorder.SetSampling); round and session spans, the
	// virtual clock and the session counters stay exact.
	Trace       *trace.Builder
	TraceSample int
	// Obs, when non-nil, receives the session-start event, one event per
	// poll from a publisher observing last, the chain's fault and retry
	// events and the closing verdict. Parallel trials publish in
	// scheduling order; every event carries the label and trial index
	// that sinks needing determinism key on.
	Obs *obs.Bus
}

// Trial identifies one session to Open.
type Trial struct {
	// Index keys the trial's trace fork, audit row and poll sampling.
	Index int
	// Label names the session on the collector and the bus; only those
	// read it.
	Label string
	// N and T are the session's population and threshold. X is the
	// configured positive count: unaudited decisions are graded against
	// X >= T, and traced sessions carry it.
	N, T, X int
	// Stream is the Split label of the algorithm's stream: 2 on the
	// abstract channel (which draws from 1), 3 on the packet-level
	// campaigns.
	Stream uint64
	// Audit grades the session even when the Stack has no collector; the
	// verdict is left on the Session.
	Audit bool
	// Hook, when set, wraps the substrate between the fault injector and
	// the retry layer (tcastd's medium scheduler). A slot meter of its
	// own must be on the querier it returns.
	Hook func(query.Querier) query.Querier
}

// State is one trial's reusable scratch: the abstract channel, the session
// arena, the channel and algorithm streams, the recycled auditor, span
// recorder and tap, and the Session itself. Reusing a State keeps the
// bare trial path free of allocations; the reseeding calls draw exactly
// the sequences their allocating equivalents do, so reused and fresh
// states give bit-identical trials. A State serves one trial at a time.
type State struct {
	ch        fastsim.Channel
	arena     core.Arena
	chr, algr rng.Source
	aud       *audit.Auditor
	lossless  bool // Config.Lossless points here, so auditing allocates nothing
	spans     trace.SpanRecorder
	tap       query.Tap
	obs       []query.Observer
	sess      Session
}

var pool = sync.Pool{New: func() any { return new(State) }}

// Get takes a State from the shared pool.
func Get() *State { return pool.Get().(*State) }

// Put returns a State to the pool once its Session is no longer read.
func Put(st *State) { pool.Put(st) }

// Channel redraws the state's abstract channel for a fresh trial: n nodes
// with exactly x positives drawn from r.Split(1).
func (st *State) Channel(n, x int, cfg fastsim.Config, r *rng.Source) *fastsim.Channel {
	r.SplitInto(1, &st.chr)
	st.ch.ResetRandom(n, x, cfg, &st.chr)
	return &st.ch
}

// Session is one opened trial: its assembled stack and, after Run, its
// outcome.
type Session struct {
	// Q is the outermost querier the algorithm polls. A caller may wrap
	// it further between Open and Run (tcastsim -dump's recorder tap).
	Q query.Querier
	// Label starts as Trial.Label; a caller may extend it between Run and
	// Publish (ext-faults names the fault behind a wrong decision).
	Label string
	// Result is the algorithm's outcome; Verdict is the auditor's when
	// Audited. Both are valid after a successful Run.
	Result  core.Result
	Verdict audit.Verdict
	Audited bool

	stack Stack
	st    *State
	tr    Trial
	alg   core.Algorithm
	err   error

	// The handles Open built, so nothing walks the chain.
	rq    *query.Retry
	inj   *faults.Injector
	meter query.SlotMeter
	met   *metrics.Observer
	aud   *audit.Auditor
	fb    *trace.Builder
	spans *trace.SpanRecorder
}

// Open assembles trial tr's stack over sub, the substrate the caller drew
// from r, for algorithm alg. An Oracle without ground truth is bound to
// sub. The Session lives in st. One tap carries every configured
// observer; with none configured there is no tap.
func (s *Stack) Open(st *State, sub query.Querier, alg core.Algorithm, r *rng.Source, tr Trial) (*Session, error) {
	if o, ok := alg.(core.Oracle); ok && o.Truth == nil {
		truth, ok := sub.(core.GroundTruth)
		if !ok {
			return nil, fmt.Errorf("trial: %s needs a substrate that knows its positives", alg.Name())
		}
		o.Truth = truth
		alg = o
	}
	ss := &st.sess
	*ss = Session{Label: tr.Label, stack: *s, st: st, tr: tr, alg: alg}
	q := sub
	if s.Faults != nil {
		ss.inj = faults.New(q, *s.Faults, tr.N, r.Split(FaultStream))
		q = ss.inj
	}
	if tr.Hook != nil {
		q = tr.Hook(q)
	}
	q = query.WithRetry(q, s.Retry)
	ss.rq, _ = q.(*query.Retry)
	// The tap's slot meter: the retry ledger, else the hook's or the
	// substrate's own.
	if ss.meter, _ = q.(query.SlotMeter); ss.meter == nil {
		ss.meter, _ = sub.(query.SlotMeter)
	}
	r.SplitInto(tr.Stream, &st.algr)

	st.obs = st.obs[:0]
	if s.Metrics != nil {
		ss.met = metrics.NewObserver(s.Metrics)
		st.obs = append(st.obs, ss.met)
	}
	if s.Audit != nil || tr.Audit {
		truth, ok := sub.(audit.Truth)
		if !ok {
			return nil, fmt.Errorf("audit: substrate %T exposes no ground truth and none was supplied", sub)
		}
		// The bound invariants need every layer sound: an active
		// injector drops replies above a lossless substrate.
		st.lossless = false
		if ll, ok := sub.(interface{ Lossless() bool }); ok {
			st.lossless = ll.Lossless() && (ss.inj == nil || ss.inj.Lossless())
		}
		if st.aud == nil {
			st.aud = new(audit.Auditor)
		}
		cfg := audit.Config{Truth: truth, N: tr.N, T: tr.T, Metrics: s.Metrics, Lossless: &st.lossless}
		if err := st.aud.Reset(q, cfg); err != nil {
			return nil, err
		}
		ss.aud = st.aud
		st.obs = append(st.obs, ss.aud)
	}
	if s.Trace != nil {
		ss.fb = s.Trace.Fork(tr.Index)
		ss.fb.Begin(trace.KindTrial, "trial "+strconv.Itoa(tr.Index))
		var ann [3]trace.Annotator
		n := 0
		if ss.aud != nil {
			ann[n], n = ss.aud, n+1
		}
		if ss.inj != nil {
			ann[n], n = ss.inj, n+1
		}
		if an, ok := sub.(trace.Annotator); ok {
			ann[n], n = an, n+1
		}
		ss.spans = &st.spans
		ss.spans.Reset(ss.fb, ann[:n]...)
		ss.spans.SetSampling(s.TraceSample, uint64(tr.Index))
		ss.spans.StartSession(alg.Name(),
			trace.IntAttr("n", tr.N), trace.IntAttr("t", tr.T), trace.IntAttr("x", tr.X))
		st.obs = append(st.obs, ss.spans)
	}
	if s.Obs != nil {
		st.obs = append(st.obs, obs.NewPollPublisher(s.Obs, tr.Label, tr.Index))
		obs.PublishSessionStart(s.Obs, tr.Label, tr.Index)
	}
	if len(st.obs) > 0 {
		st.tap.Reset(q, ss.meter, st.obs)
		q = &st.tap
	}
	ss.Q = q
	return ss, nil
}

// Run executes the algorithm on Q and finishes the observers: the audit
// verdict first, so it annotates the closing session span, then the
// trace spans and the per-session metrics. A session that fails before
// deciding is voided on the collector and its spans carry the error.
func (ss *Session) Run() (core.Result, error) {
	res, err := core.RunIn(&ss.st.arena, ss.alg, ss.Q, ss.tr.N, ss.tr.T, &ss.st.algr)
	ss.Result, ss.err = res, err
	if ss.aud != nil {
		if err == nil {
			ss.Verdict, ss.Audited = ss.aud.Finish(res.Decision), true
		} else if c := ss.stack.Audit; c != nil {
			c.Void(ss.Label)
		}
	}
	if ss.spans != nil {
		if err == nil {
			ss.spans.EndSession(
				trace.BoolAttr("decision", res.Decision),
				trace.IntAttr("queries", res.Queries),
				trace.IntAttr("rounds", res.Rounds))
		} else {
			ss.spans.EndSession(trace.StringAttr("error", err.Error()))
		}
		ss.fb.End() // trial span
	}
	if err != nil {
		return res, err
	}
	if ss.met != nil {
		ss.met.Finish()
	}
	return res, nil
}

// Slots prices the finished session in virtual slots: the slot meter
// below the tap, or one slot per poll on a substrate without one.
func (ss *Session) Slots() int64 {
	if ss.meter != nil {
		return int64(ss.meter.Slots())
	}
	return int64(ss.Result.Queries)
}

// Cause names the injected fault behind the verdict's causal poll; empty
// when the trial has no injector or no injected fault touched the poll.
func (ss *Session) Cause() string {
	return obs.DescribeCause(ss.rq, ss.inj, ss.Verdict.CausalPoll)
}

// Publish files the session under Label: the verdict joins the
// collector, and the bus receives the retry layer's and injector's
// events and then the verdict — or, unaudited, the decision graded
// against X >= T. After a failed Run only the chain events are
// published.
func (ss *Session) Publish() {
	s, i := &ss.stack, ss.tr.Index
	if ss.Audited && s.Audit != nil {
		s.Audit.AddAt(i, ss.Label, ss.Verdict)
	}
	if s.Obs == nil {
		return
	}
	obs.PublishChainEvents(s.Obs, ss.Label, i, ss.rq, ss.inj)
	switch {
	case ss.err != nil:
	case ss.Audited:
		obs.PublishVerdict(s.Obs, ss.Label, i, ss.Verdict, ss.Slots(), ss.Cause())
	default:
		obs.PublishDecision(s.Obs, ss.Label, i, ss.Result.Decision, ss.tr.X >= ss.tr.T, ss.Result.Queries, ss.Slots())
	}
}

// Run is Open, Session.Run and Publish in one call: the whole trial.
func (s *Stack) Run(st *State, sub query.Querier, alg core.Algorithm, r *rng.Source, tr Trial) (*Session, error) {
	ss, err := s.Open(st, sub, alg, r, tr)
	if err != nil {
		return nil, err
	}
	if _, err := ss.Run(); err != nil {
		return nil, err
	}
	ss.Publish()
	return ss, nil
}

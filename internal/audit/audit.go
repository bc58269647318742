// Package audit is the ground-truth half of the observability stack: an
// oracle-backed query.Observer that grades every poll response against
// the substrate's true positive set and checks the initiator's Knowledge
// invariants as the session runs.
//
// The metrics layer (PR 1) counts what happened and the trace layer (PR 2)
// records when; neither can say whether a response was *sound*, because
// neither sees ground truth. The auditor does — it is handed (or discovers)
// the substrate's true positive set, exactly the vantage point the paper's
// Section VII testbed analysis takes when it grades decisions offline — so
// it can classify each response (radio false negative, phantom activity,
// corrupted decode), attribute every wrong decision to the first causal
// poll, and account each node's channel occupancy in tx/rx/idle-listen
// slots for observed-energy billing.
//
// Like the other observers it sees only the poll records a query.Tap
// fans out, consumes no randomness, and never mutates bins or responses,
// so an audited run is bit-identical to a bare one.
package audit

import (
	"fmt"

	"tcast/internal/energy"
	"tcast/internal/metrics"
	"tcast/internal/query"
	"tcast/internal/trace"
)

// Truth exposes the substrate's ground-truth predicate values — the oracle
// the auditor grades against. fastsim.Channel and pollcast.Session
// implement it directly; replay-based substrates (motelab) supply a
// TruthFunc built from the positives they configured.
type Truth interface {
	IsPositive(id int) bool
}

// TruthFunc adapts a plain function to the Truth interface.
type TruthFunc func(id int) bool

// IsPositive implements Truth.
func (f TruthFunc) IsPositive(id int) bool { return f(id) }

// Class grades one poll response against ground truth.
type Class int

const (
	// ClassOK: the response is consistent with the bin's true positive
	// count.
	ClassOK Class = iota
	// ClassFalseNegative: true positives were hidden — the bin answered
	// Empty despite containing positives, or a capture-free decode
	// claimed a singleton bin that truly held more (radio irregularity,
	// the paper's Section VII error source).
	ClassFalseNegative
	// ClassPhantom: the channel showed more activity than the bin's
	// positives can produce — Active over an all-negative bin, or a
	// Collision over a bin with fewer than two positives (interference).
	ClassPhantom
	// ClassCorruptDecode: a Decoded response named a node that is not in
	// the polled bin or is not truly positive.
	ClassCorruptDecode
)

// NumClasses is the number of response classes; Class values are
// contiguous in [0, NumClasses) so they can index fixed-size arrays.
const NumClasses = 4

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassFalseNegative:
		return "false_negative"
	case ClassPhantom:
		return "phantom"
	case ClassCorruptDecode:
		return "corrupt_decode"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Classify grades one response against ground truth. The soundness bounds
// come from Response.MinPositives and Response.MaxPositives — the same
// helpers Knowledge.Apply infers from — so the auditor and the initiator's
// ledger can never disagree about what a response proves.
func Classify(bin []int, r query.Response, traits query.Traits, truth Truth) Class {
	k := 0
	for _, id := range bin {
		if truth.IsPositive(id) {
			k++
		}
	}
	return classify(bin, r, traits, truth, k)
}

// classify is Classify with the bin's true positive count precomputed.
func classify(bin []int, r query.Response, traits query.Traits, truth Truth, k int) Class {
	if r.Kind == query.Decoded {
		member := false
		for _, id := range bin {
			if id == r.DecodedID {
				member = true
				break
			}
		}
		if !member || !truth.IsPositive(r.DecodedID) {
			return ClassCorruptDecode
		}
	}
	if k < r.MinPositives() {
		return ClassPhantom
	}
	if k > r.MaxPositives(bin, traits) {
		return ClassFalseNegative
	}
	return ClassOK
}

// Invariant names a Knowledge invariant the auditor monitors.
type Invariant int

const (
	// InvariantBinSubset: every polled bin must be a subset of the
	// current candidate set — polling an already-resolved node wastes a
	// slot and signals a bookkeeping bug.
	InvariantBinSubset Invariant = iota
	// InvariantConfirmedMonotone: Confirmed never decreases.
	InvariantConfirmedMonotone
	// InvariantCandidatesMonotone: the candidate set never grows.
	InvariantCandidatesMonotone
	// InvariantLowerBound: on lossless substrates LowerBound ≤ true x.
	InvariantLowerBound
	// InvariantUpperBound: on lossless substrates UpperBound ≥ true x.
	InvariantUpperBound
)

// NumInvariants is the number of monitored invariants.
const NumInvariants = 5

// String implements fmt.Stringer.
func (i Invariant) String() string {
	switch i {
	case InvariantBinSubset:
		return "bin_subset"
	case InvariantConfirmedMonotone:
		return "confirmed_monotone"
	case InvariantCandidatesMonotone:
		return "candidates_monotone"
	case InvariantLowerBound:
		return "lower_bound"
	case InvariantUpperBound:
		return "upper_bound"
	default:
		return fmt.Sprintf("Invariant(%d)", int(i))
	}
}

// Violation records one invariant breach, anchored to the poll (index into
// the session's poll sequence) after which it was detected.
type Violation struct {
	Poll      int
	Invariant Invariant
	Detail    string
}

// Outcome grades one finished session's decision.
type Outcome int

const (
	// OutcomeCorrect: the decision matches ground truth.
	OutcomeCorrect Outcome = iota
	// OutcomeWrongLoss: the decision is wrong and a causal unsound poll
	// was identified — the substrate's loss or interference misled a
	// correctly-functioning algorithm.
	OutcomeWrongLoss
	// OutcomeWrongAlgorithm: the decision is wrong although every poll
	// response was sound — the algorithm itself mishandled the evidence.
	OutcomeWrongAlgorithm
	// OutcomeWrongUnattributed: the decision is wrong but the grader had
	// no poll record to attribute it with (decision-only grading over a
	// serial link, as in cmd/tcastmote's controller mode).
	OutcomeWrongUnattributed
)

// NumOutcomes is the number of session outcomes.
const NumOutcomes = 4

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeCorrect:
		return "correct"
	case OutcomeWrongLoss:
		return "wrong_loss"
	case OutcomeWrongAlgorithm:
		return "wrong_algorithm"
	case OutcomeWrongUnattributed:
		return "wrong_unattributed"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// PollRecord summarizes one graded poll.
type PollRecord struct {
	// BinSize is the polled group's size.
	BinSize int
	// Kind is the response the initiator observed.
	Kind query.Kind
	// TruePositives is the bin's ground-truth positive count.
	TruePositives int
	// Class is the soundness grade.
	Class Class
}

// Verdict is the auditor's judgement of one finished session.
type Verdict struct {
	// Decision is the algorithm's answer, Truth the ground-truth answer
	// to "x >= t?", and TrueX the true positive count.
	Decision bool
	Truth    bool
	TrueX    int
	// Outcome grades the decision; CausalPoll is the index of the first
	// unsound poll that can explain a wrong decision (-1 when none), and
	// CausalClass its grade (ClassOK when CausalPoll is -1).
	Outcome     Outcome
	CausalPoll  int
	CausalClass Class
	// Polls is the number of graded polls and Classes their partition.
	Polls   int
	Classes [NumClasses]int
	// Violations lists every Knowledge-invariant breach observed.
	Violations []Violation
	// Initiator and Nodes are the per-node channel-occupancy ledgers
	// (see Verdict.Energy). Nodes is sparse: only nodes that appeared in
	// a polled bin carry an entry, and Nodes.At reports the zero ledger
	// for the rest. It aliases the auditor's working account — read it
	// before the auditor is Reset for the next session.
	Initiator energy.SlotLedger
	Nodes     NodeLedgers
}

// Correct reports whether the decision matched ground truth.
func (v Verdict) Correct() bool { return v.Outcome == OutcomeCorrect }

// Metric names recorded by the auditor. Like the tcast_polls_total kind
// partition, each label set partitions its total exactly.
const (
	// MetricAuditPolls counts graded polls, partitioned by a class="..."
	// label.
	MetricAuditPolls = "tcast_audit_polls_total"
	// MetricAuditSessions counts graded sessions, partitioned by an
	// outcome="..." label.
	MetricAuditSessions = "tcast_audit_sessions_total"
	// MetricAuditViolations counts invariant breaches, partitioned by an
	// invariant="..." label.
	MetricAuditViolations = "tcast_audit_violations_total"
)

// Config configures an Auditor.
type Config struct {
	// Truth is the ground-truth oracle; nil discovers it from the
	// substrate at the root of the querier chain Reset is given.
	Truth Truth
	// N is the participant population {0..N-1} and T the session's
	// threshold.
	N, T int
	// Metrics, when non-nil, receives the tcast_audit_* counters.
	Metrics *metrics.Registry
	// Lossless overrides substrate lossless detection: the Knowledge
	// bound invariants (LowerBound ≤ true x ≤ UpperBound) are only
	// checked on lossless substrates, where every response is sound by
	// construction. Nil asks the chain: the substrate's Lossless report
	// (false without one), vetoed by any layer above it that reports false.
	Lossless *bool
}

// Auditor is the ground-truth grading observer. Not safe for concurrent
// use; each session gets its own Auditor, like the other observers.
//
// The embedded tap is the one New binds, so an auditor from New is
// itself the querier to poll; an auditor observing a shared tap leaves
// it unused.
type Auditor struct {
	query.Tap
	traits   query.Traits
	truth    Truth
	n, t     int
	trueX    int
	lossless bool
	shadow   *query.Knowledge

	polls      []PollRecord
	classes    [NumClasses]int
	violations []Violation

	initiator energy.SlotLedger
	nodes     NodeLedgers

	verdict *Verdict

	mPolls      [NumClasses]*metrics.Counter
	mSessions   [NumOutcomes]*metrics.Counter
	mViolations [NumInvariants]*metrics.Counter
}

// New returns q behind a tap carrying a fresh auditor, which is the
// tap: poll it, then Finish it.
func New(q query.Querier, cfg Config) (*Auditor, error) {
	a := &Auditor{}
	a.Tap.Reset(q, nil, []query.Observer{a})
	if err := a.Reset(q, cfg); err != nil {
		return nil, err
	}
	return a, nil
}

// Reset re-targets the auditor at a fresh session over q (the radio
// traits, and the Config fields left nil), reusing its shadow Knowledge
// bitset, poll/violation slices, and the node account's map buckets, so
// a pooled trial loop resets one auditor per worker instead of
// allocating O(N) state per session. Any previously returned Verdict's
// Nodes account is invalidated. An auditor from New re-targets its tap.
func (a *Auditor) Reset(q query.Querier, cfg Config) error {
	if q == nil {
		return fmt.Errorf("audit: nil querier")
	}
	if cfg.N < 0 || cfg.T < 0 {
		return fmt.Errorf("audit: negative population n=%d or threshold t=%d", cfg.N, cfg.T)
	}
	truth := cfg.Truth
	if truth == nil {
		root := query.Root(q)
		var ok bool
		truth, ok = root.(Truth)
		if !ok {
			return fmt.Errorf("audit: substrate %T exposes no ground truth and none was supplied", root)
		}
	}
	lossless := false
	if cfg.Lossless != nil {
		lossless = *cfg.Lossless
	} else if _, ok := query.Root(q).(interface{ Lossless() bool }); ok {
		// The bound invariants need every layer sound, not just the
		// substrate: a middleware that injects loss of its own (the
		// faults injector) sits above a lossless medium, and grading
		// LB <= x <= UB there would report spurious violations. Walk the
		// whole chain and let any layer that reports losslessness veto.
		lossless = true
		query.Walk(q, func(l query.Querier) bool {
			if ll, ok := l.(interface{ Lossless() bool }); ok && !ll.Lossless() {
				lossless = false
			}
			return lossless
		})
	}
	if a.Tap.Unwrap() != nil {
		meter, _ := query.Find[query.SlotMeter](q)
		a.Tap.Reset(q, meter, a.Tap.Observers())
	}
	a.traits = q.Traits()
	a.truth = truth
	a.n, a.t = cfg.N, cfg.T
	a.lossless = lossless
	if a.shadow == nil {
		a.shadow = query.NewKnowledge(cfg.N, cfg.T)
	} else {
		a.shadow.Reset(cfg.N, cfg.T)
	}
	a.nodes.reset(cfg.N)
	a.polls = a.polls[:0]
	a.classes = [NumClasses]int{}
	a.violations = a.violations[:0]
	a.initiator = energy.SlotLedger{}
	a.verdict = nil
	// Counting true positives by scanning IsPositive over the population
	// is O(N) per session; substrates that already know their positive
	// count (fastsim.Channel, pollcast.Session expose Positives) answer
	// in O(1).
	a.trueX = 0
	if tc, ok := truth.(interface{ Positives() int }); ok {
		a.trueX = tc.Positives()
	} else {
		for id := 0; id < cfg.N; id++ {
			if truth.IsPositive(id) {
				a.trueX++
			}
		}
	}
	a.mPolls = [NumClasses]*metrics.Counter{}
	a.mSessions = [NumOutcomes]*metrics.Counter{}
	a.mViolations = [NumInvariants]*metrics.Counter{}
	if m := cfg.Metrics; m != nil {
		// Resolve every partition member up front so zero-valued series
		// still appear in dumps and the partitions visibly sum.
		for c := Class(0); int(c) < NumClasses; c++ {
			a.mPolls[c] = m.Counter(MetricAuditPolls, "class", c.String())
		}
		for o := Outcome(0); int(o) < NumOutcomes; o++ {
			a.mSessions[o] = m.Counter(MetricAuditSessions, "outcome", o.String())
		}
		for i := Invariant(0); int(i) < NumInvariants; i++ {
			a.mViolations[i] = m.Counter(MetricAuditViolations, "invariant", i.String())
		}
	}
	return nil
}

// TrueX returns the ground-truth positive count over {0..n-1}.
func (a *Auditor) TrueX() int { return a.trueX }

// Lossless reports whether the bound invariants are being checked.
func (a *Auditor) Lossless() bool { return a.lossless }

// ObservePoll implements query.Observer: grade the response against
// ground truth and fold it into the shadow ledger.
func (a *Auditor) ObservePoll(p *query.Poll) { a.grade(p.Bin, p.Response) }

// ObserveRound implements query.Observer: it resets the shadow ledger's
// per-round lower bound, mirroring the session's own StartRound
// (core.runRound fires the round hook before StartRound, with no polls
// in between, so the two ledgers stay in lockstep).
func (a *Auditor) ObserveRound(int) { a.shadow.StartRound() }

// grade classifies one response, checks the Knowledge invariants around a
// shadow Apply, and accounts the poll's channel occupancy.
func (a *Auditor) grade(bin []int, resp query.Response) {
	idx := len(a.polls)
	traits := a.traits

	for _, id := range bin {
		if id < 0 || id >= a.n || !a.shadow.Candidates.Contains(id) {
			a.violate(idx, InvariantBinSubset,
				fmt.Sprintf("node %d polled outside the candidate set", id))
			break
		}
	}

	k := 0
	for _, id := range bin {
		if a.truth.IsPositive(id) {
			k++
		}
	}
	class := classify(bin, resp, traits, a.truth, k)

	prevConfirmed, prevCand := a.shadow.Confirmed, a.shadow.Candidates.Len()
	a.shadow.Apply(bin, resp, traits)
	if a.shadow.Confirmed < prevConfirmed {
		a.violate(idx, InvariantConfirmedMonotone,
			fmt.Sprintf("confirmed fell %d -> %d", prevConfirmed, a.shadow.Confirmed))
	}
	if now := a.shadow.Candidates.Len(); now > prevCand {
		a.violate(idx, InvariantCandidatesMonotone,
			fmt.Sprintf("candidates grew %d -> %d", prevCand, now))
	}
	if a.lossless {
		if lb := a.shadow.LowerBound(); lb > a.trueX {
			a.violate(idx, InvariantLowerBound,
				fmt.Sprintf("lower bound %d exceeds true x=%d", lb, a.trueX))
		}
		if ub := a.shadow.UpperBound(); ub < a.trueX {
			a.violate(idx, InvariantUpperBound,
				fmt.Sprintf("upper bound %d below true x=%d", ub, a.trueX))
		}
	}

	a.account(bin)
	a.classes[class]++
	if c := a.mPolls[class]; c != nil {
		c.Inc()
	}
	a.polls = append(a.polls, PollRecord{
		BinSize: len(bin), Kind: resp.Kind, TruePositives: k, Class: class,
	})
}

func (a *Auditor) violate(poll int, inv Invariant, detail string) {
	a.violations = append(a.violations, Violation{Poll: poll, Invariant: inv, Detail: detail})
	if c := a.mViolations[inv]; c != nil {
		c.Inc()
	}
}

// Finish grades the finished session's decision and returns the Verdict.
// Call it before trace.SpanRecorder.EndSession so the causal-poll
// attributes land on the closing session span.
func (a *Auditor) Finish(decision bool) Verdict {
	truth := a.trueX >= a.t
	outcome, causal := attribute(decision, truth, a.polls)
	v := Verdict{
		Decision:   decision,
		Truth:      truth,
		TrueX:      a.trueX,
		Outcome:    outcome,
		CausalPoll: causal,
		Polls:      len(a.polls),
		Classes:    a.classes,
		Violations: a.violations,
		Initiator:  a.initiator,
		Nodes:      a.nodes,
	}
	if causal >= 0 {
		v.CausalClass = a.polls[causal].Class
	}
	if c := a.mSessions[outcome]; c != nil {
		c.Inc()
	}
	a.verdict = &v
	return v
}

// attribute grades a decision against ground truth and identifies the
// first causal poll. The search is direction-aware: a wrong "x < t" needs
// hidden positives (false negatives, or a decode corrupted away from a
// real positive), while a wrong "x >= t" needs fabricated or corrupted
// activity. A wrong decision with no unsound poll in the right direction
// is the algorithm's own fault.
func attribute(decision, truth bool, polls []PollRecord) (Outcome, int) {
	if decision == truth {
		return OutcomeCorrect, -1
	}
	if !decision {
		for i, p := range polls {
			if p.Class == ClassFalseNegative {
				return OutcomeWrongLoss, i
			}
		}
		for i, p := range polls {
			if p.Class == ClassCorruptDecode {
				return OutcomeWrongLoss, i
			}
		}
	} else {
		for i, p := range polls {
			if p.Class == ClassPhantom || p.Class == ClassCorruptDecode {
				return OutcomeWrongLoss, i
			}
		}
	}
	return OutcomeWrongAlgorithm, -1
}

// TraceAttrs implements trace.Annotator: session spans it annotates carry
// the grading summary, and — once Finish has run — the verdict with its
// causal poll.
func (a *Auditor) TraceAttrs() []trace.Attr {
	attrs := []trace.Attr{
		trace.IntAttr("audit_true_x", a.trueX),
		trace.BoolAttr("audit_lossless", a.lossless),
		trace.IntAttr("audit_false_negative_polls", a.classes[ClassFalseNegative]),
		trace.IntAttr("audit_phantom_polls", a.classes[ClassPhantom]),
		trace.IntAttr("audit_corrupt_polls", a.classes[ClassCorruptDecode]),
		trace.IntAttr("audit_violations", len(a.violations)),
	}
	if v := a.verdict; v != nil {
		attrs = append(attrs,
			trace.StringAttr("audit_outcome", v.Outcome.String()),
			trace.IntAttr("audit_causal_poll", v.CausalPoll),
		)
		if v.CausalPoll >= 0 {
			attrs = append(attrs, trace.StringAttr("audit_causal_class", v.CausalClass.String()))
		}
	}
	return attrs
}
